package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"carat/internal/testbed"
)

// perLayer is the traced pass. Each of the workload's runs executes once
// untraced (the reference for host time and for the Results digest) and
// once with the recorder installed as Config.Trace; both are checked, and
// the traced run's access stream is replayed into fresh instances of its
// own paradigm's engines and of the journal while the run's share of the
// time budget lasts, then dropped.
// The spans of every run are written as Chrome trace-event JSON at the
// end. A CPU profile covers the whole pass, its samples labelled by phase
// (untraced-run, traced-run, audit, replay, micro), so
// `go tool pprof -tagfocus phase=traced-run` isolates the traced runs.
// The kernel micro-benchmark, the core.Solve timer (on the run whose model
// is solved, if any) and the Ethernet.Breakdown timer (on a fleet that runs
// the shared fabric) run once at the end.
func perLayer(sp spec, seed uint64, budget time.Duration, outDir string) (*report, error) {
	start := time.Now()
	runs := sp.runs(seed)
	rp := newReport()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	prof, err := os.Create(filepath.Join(outDir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	profiling := true
	defer func() {
		if profiling {
			pprof.StopCPUProfile()
			prof.Close()
		}
	}()
	phase := func(name string, f func()) {
		pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) { f() })
	}

	var (
		commitsAll, attempts, events, rollbacks            int64
		lockRequests, deadlocks, lockCommits, gcs          int64
		occAborts, occCommits, netMsgs                     int64
		plainHost, tracedHost, lockHost, newTime, gcPause  time.Duration
		simHours, diskIOs, cpuMax, tmMax, diskMax, netUtil float64
		netQueue, netInfl, arrivals, sheds                 float64
		modelPct                                           float64
		attemptSpans, lockWaitSpans, arrivalSpans          []float64
		digests, labels                                    []string
		recs                                               []*recorder
		rpl                                                replay
	)
	for i, r := range runs {
		var p, o *outcome
		var err error
		phase("untraced-run", func() { p, err = execute(r, nil) })
		if err != nil {
			return nil, err
		}
		gcs += int64(p.gcs)
		gcPause += p.gcPause
		rec := newRecorder()
		phase("traced-run", func() { o, err = execute(r, rec.Record) })
		if err != nil {
			return nil, err
		}
		if o.digest != p.digest {
			o.wrong = append(o.wrong, fmt.Sprintf("%s: traced Results %s differ from untraced %s", r.label, o.digest, p.digest))
		}
		if empty := emptyTenths(r, rec.commits); len(empty) > 0 {
			o.stalled = append(o.stalled, fmt.Sprintf("%s: no commit in tenths %v of the measurement window", r.label, empty))
		}
		phase("audit", func() {
			for _, v := range rec.audit.Audit(o.sys) {
				o.wrong = append(o.wrong, fmt.Sprintf("%s: audit: %s", r.label, v))
			}
		})
		// One run, one tally: the traced outcome carries the untraced
		// run's failures too.
		o.merge(p)
		rp.tally(o)
		digests = append(digests, p.digest)
		labels = append(labels, r.label)

		phase("replay", func() {
			share := start.Add(budget * time.Duration(i+1) / time.Duration(len(runs)))
			for pass := 0; pass == 0 || time.Now().Before(share); pass++ {
				rpl.replayRun(r, rec)
			}
		})
		if r.wl.Concurrency == testbed.CC2PL {
			lockRequests += rec.requests()
			lockCommits += o.commits
			lockHost += p.simTime
		}
		// Only the spans and counts outlive the run.
		rec.audit, rec.stream, rec.committed = nil, nil, nil
		recs = append(recs, rec)

		res := o.res
		commitsAll += o.commits
		attempts += rec.counts[testbed.EvBegin]
		events += rec.events()
		rollbacks += rec.counts[testbed.EvRollback]
		plainHost += p.simTime
		tracedHost += o.simTime
		newTime += p.newTime
		simHours += p.simHours
		attemptSpans = append(attemptSpans, rec.durations(spanAttempt)...)
		lockWaitSpans = append(lockWaitSpans, rec.durations(spanLockWait)...)
		arrivalSpans = append(arrivalSpans, rec.durations(spanArrival)...)
		for _, nr := range res.Nodes {
			diskIOs += nr.DiskIORate * res.Window / 1000
			cpuMax = math.Max(cpuMax, nr.CPUUtilization)
			tmMax = math.Max(tmMax, nr.TMUtilization)
			diskMax = math.Max(diskMax, math.Max(nr.DBDiskUtilization, nr.LogDiskUtilization))
			if r.wl.Concurrency == testbed.CC2PL {
				deadlocks += nr.LocalDeadlocks + nr.GlobalDeadlocks
			}
			if r.wl.Concurrency == testbed.CCOCC {
				occAborts += nr.ValidationAborts
			}
			arrivals += float64(nr.OpenArrivals)
			sheds += float64(nr.ShedArrivals)
		}
		if r.wl.Concurrency == testbed.CCOCC {
			occCommits += o.commits
		}
		netMsgs += res.NetMessages
		netUtil = math.Max(netUtil, res.NetUtilization)
		netQueue += res.NetMeanQueueMS * float64(res.NetMessages)
		netInfl += res.NetMeanInflationMS * float64(res.NetMessages)
		if p.model != nil {
			modelPct = modelVsSimPct(p.model, p.res)
		}
	}
	rp.notef(fmt.Sprintf("results-sha256 %s %s", sp.name, combinedDigest(digests)))

	var kd kernelBench
	var solveS, ethNS float64
	phase("micro", func() {
		kd = runKernelBench(runs[0], seed, hour)
		solveS, err = solveTimer(runs)
		ethNS = ethernetTimer(runs[0].wl, seed, 1<<20)
	})
	if err != nil {
		return nil, fmt.Errorf("core.Solve timer: %w", err)
	}
	profiling = false
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, fmt.Errorf("writing CPU profile: %w", err)
	}
	if err := writeChromeTrace(filepath.Join(outDir, "trace.json"), labels, recs); err != nil {
		return nil, err
	}

	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	c := float64(commitsAll)

	rp.set("sim.ns_per_op", ratio(float64(kd.host.Nanoseconds()), float64(kd.ops)), "ns")
	rp.set("sim.alloc_bytes_per_op", ratio(float64(kd.alloc), float64(kd.ops)), "B")
	rp.set("sim.ops", float64(kd.ops), "count")

	rp.set("testbed.new_s", newTime.Seconds(), "s")
	rp.set("testbed.ns_per_event", ratio(float64(plainHost.Nanoseconds()), float64(events)), "ns")
	rp.set("testbed.events_per_txn", ratio(float64(events), c), "count")
	rp.set("testbed.attempts_per_commit", ratio(float64(attempts), c), "ratio")
	rp.set("testbed.cpu_util_max", cpuMax, "fraction")
	rp.set("testbed.tm_util_max", tmMax, "fraction")
	rp.set("testbed.resp_ms_p50", quantile(attemptSpans, 0.5), "sim_ms")
	rp.set("testbed.resp_ms_p95", quantile(attemptSpans, 0.95), "sim_ms")
	rp.set("testbed.trace_overhead_pct", ratio(float64(tracedHost-plainHost), float64(plainHost))*100, "%")

	rp.set("disk.ios_per_txn", ratio(diskIOs, c), "count")
	rp.set("disk.util_max", diskMax, "fraction")

	rp.set("lock.ns_per_request", rpl.lockRequest.nsPerCall(), "ns")
	rp.set("lock.ns_per_release_all", rpl.lockRelease.nsPerCall(), "ns")
	rp.set("lock.requests_per_txn", ratio(float64(lockRequests), float64(lockCommits)), "count")
	rp.set("lock.block_ratio", ratio(float64(rpl.lockWaits), float64(rpl.lockRequest.n)), "ratio")
	rp.set("lock.wait_ms_mean", mean(lockWaitSpans), "sim_ms")
	rp.set("lock.deadlocks_per_commit", ratio(float64(deadlocks), float64(lockCommits)), "ratio")
	rp.set("lock.est_share_pct", ratio(rpl.lockRequest.nsPerCall()*float64(lockRequests), float64(lockHost.Nanoseconds()))*100, "%")

	rp.set("cc.2pl.ns_per_access", rpl.cc2pl.nsPerCall(), "ns")
	rp.set("cc.occ.ns_per_access", rpl.occAccess.nsPerCall(), "ns")
	rp.set("cc.occ.ns_per_validate", rpl.occValidate.nsPerCall(), "ns")
	rp.set("cc.quecc.ns_per_access", rpl.queccAccess.nsPerCall(), "ns")
	rp.set("cc.occ.validation_aborts_per_commit", ratio(float64(occAborts), float64(occCommits)), "ratio")

	rp.set("wal.ns_per_before_image", rpl.walBefore.nsPerCall(), "ns")
	rp.set("wal.ns_per_commit", rpl.walCommit.nsPerCall(), "ns")
	rp.set("wal.ns_per_rollback", rpl.walRollback.nsPerCall(), "ns")
	rp.set("wal.rollbacks_per_commit", ratio(float64(rollbacks), c), "ratio")

	rp.set("comm.messages_per_txn", ratio(float64(netMsgs), c), "count")
	rp.set("comm.net_util", netUtil, "fraction")
	rp.set("comm.net_queue_ms_mean", ratio(netQueue, float64(netMsgs)), "sim_ms")
	rp.set("comm.net_inflation_ms_mean", ratio(netInfl, float64(netMsgs)), "sim_ms")
	rp.set("comm.ns_per_delay", ethNS, "ns")

	rp.set("core.solve_s", solveS, "s")
	rp.set("core.model_vs_sim_pct", modelPct, "%")

	rp.set("openload.shed_share", ratio(sheds, arrivals), "ratio")
	rp.set("openload.admit_wait_ms_mean", mean(arrivalSpans), "sim_ms")

	rp.set("runtime.gc_per_sim_hour", ratio(float64(gcs), simHours), "1/h")
	rp.set("runtime.gc_pause_ms", float64(gcPause.Nanoseconds())/1e6, "ms")
	return rp, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
