package experiment

import (
	"fmt"

	"carat/internal/repl"
	"carat/internal/testbed"
	"carat/internal/workload"
)

// PartitionPoint is one point of a partition sweep: the workload simulated
// with a scheduled network partition of the given duration under the given
// replication factor.
type PartitionPoint struct {
	// DurationMS is the partition's scheduled duration at this point (0 is
	// the partition-free baseline).
	DurationMS float64
	// Factor is the replication factor R (1 = unreplicated).
	Factor int
	// Results is the full simulator measurement.
	Results testbed.Results
	// TxnPerSec is the system-wide commit rate (goodput) in txn/s over the
	// whole window.
	TxnPerSec float64
	// GoodputFrac is TxnPerSec relative to the same factor's
	// partition-free (DurationMS = 0) point — the sweep's availability
	// measure. 1 when the sweep has no zero-duration baseline.
	GoodputFrac float64
	// MeanCommitLatencyMS is the commit-weighted mean response time across
	// all sites and transaction kinds, in ms.
	MeanCommitLatencyMS float64
	// System-wide partition effect counters.
	PartitionAborts int64
	PartitionShed   int64
	SuspectEvents   int64
	FailoverReads   int64
	// PartitionMS is the measured severed time inside the window.
	PartitionMS float64
}

// partitionHalves splits the first ceil(n/2) sites from the rest — the
// scheduled split every sweep point uses, so points differ only in how long
// the split lasts.
func partitionHalves(n int) [][]testbed.NodeID {
	var a, b []testbed.NodeID
	for s := 0; s < n; s++ {
		if s < (n+1)/2 {
			a = append(a, testbed.NodeID(s))
		} else {
			b = append(b, testbed.NodeID(s))
		}
	}
	return [][]testbed.NodeID{a, b}
}

// PartitionSweep simulates the workload under a scheduled half/half network
// partition of each duration at each replication factor, reporting goodput,
// partition-shed and -abort counts, and commit latency per point. The
// partition starts a quarter of the way into the measured window. Duration
// 0 runs the partition-free baseline for its factor (plan.Partitions
// cleared), against which GoodputFrac is computed. The base plan should
// carry finite LockWaitTimeoutMS and PrepareTimeoutMS so minority-side
// transactions abort instead of wedging for the whole split. The points run
// on the sweep engine, all on opts.Seed.
func PartitionSweep(wl workload.Workload, durations []float64, factors []int, plan testbed.FaultPlan, opts SimOptions) ([]PartitionPoint, error) {
	onset := opts.Warmup + 0.25*(opts.Duration-opts.Warmup)
	groups := partitionHalves(wl.NumNodes)
	type cell struct {
		factor int
		dur    float64
		wl     workload.Workload
	}
	var cells []cell
	for _, factor := range factors {
		for _, dur := range durations {
			wl := wl
			p := plan
			p.Partitions = nil
			if dur > 0 {
				p.Partitions = []testbed.PartitionSchedule{
					{Groups: groups, AtMS: onset, HealAfterMS: dur},
				}
			}
			wl.Faults = &p
			if factor > 1 {
				wl.Replication = repl.Policy{Factor: factor, Read: repl.ReadOne}
			} else {
				wl.Replication = repl.Policy{}
			}
			cells = append(cells, cell{factor: factor, dur: dur, wl: wl})
		}
	}
	results, err := runGrid(len(cells), opts, func(i int) (testbed.Config, string) {
		cl := cells[i]
		return cl.wl.TestbedConfig(opts.Seed, opts.Warmup, opts.Duration),
			fmt.Sprintf("partition sweep R=%d dur=%v", cl.factor, cl.dur)
	})
	if err != nil {
		return nil, err
	}
	out := make([]PartitionPoint, len(cells))
	for i, cl := range cells {
		out[i] = partitionPoint(cl.dur, cl.factor, results[i])
	}
	// GoodputFrac against each factor's zero-duration baseline; cells are
	// factor-major, one run per duration.
	for start := 0; start < len(out); start += len(durations) {
		group := out[start : start+len(durations)]
		base := 0.0
		for _, pt := range group {
			if pt.DurationMS == 0 {
				base = pt.TxnPerSec
			}
		}
		for i := range group {
			group[i].GoodputFrac = 1
			if base > 0 {
				group[i].GoodputFrac = group[i].TxnPerSec / base
			}
		}
	}
	return out, nil
}

// partitionPoint aggregates one run's measurements into a sweep point.
func partitionPoint(dur float64, factor int, res testbed.Results) PartitionPoint {
	pt := PartitionPoint{
		DurationMS:  dur,
		Factor:      factor,
		Results:     res,
		PartitionMS: res.PartitionMS,
	}
	var commits int64
	var latencyWeighted float64
	for _, n := range res.Nodes {
		pt.TxnPerSec += n.TotalTxnThroughput
		pt.PartitionAborts += n.PartitionAborts
		pt.PartitionShed += n.PartitionShed
		pt.SuspectEvents += n.SuspectEvents
		pt.FailoverReads += n.FailoverReads
		for _, k := range txnKinds {
			c := n.Commits[k]
			commits += c
			latencyWeighted += n.MeanResponse[k] * float64(c)
		}
	}
	if commits > 0 {
		pt.MeanCommitLatencyMS = latencyWeighted / float64(commits)
	}
	return pt
}
