package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"carat/internal/core"
	"carat/internal/testbed"
)

// modelBandPct is the model-vs-simulation throughput band EXPERIMENTS.md
// asserts for the paper's workloads; paper-mb8 runs fail outside it.
const modelBandPct = 15

// outcome is one executed simulation run and what its checks found.
//
// Its host times are process CPU time (see hostTime).
type outcome struct {
	res      testbed.Results
	sys      *testbed.System
	digest   string // SHA-256 of the Results
	setup    time.Duration
	newTime  time.Duration // testbed.New alone
	simTime  time.Duration // System.Run
	alloc    uint64        // heap bytes allocated from set-up to the end of the run
	gcs      uint32        // garbage collections in that span
	gcPause  time.Duration // their stop-the-world pauses
	model    *core.Result
	commits  int64
	simHours float64 // simulated time actually advanced, warmup included

	// stalled holds liveness failures: the run stopped making progress.
	// wrong holds output failures: the run produced an incorrect result.
	stalled []string
	wrong   []string
}

func (o *outcome) failed() bool { return len(o.stalled)+len(o.wrong) > 0 }

// merge adds to o the failures of another execution of the same run that
// o does not already report.
func (o *outcome) merge(other *outcome) {
	add := func(to []string, from []string) []string {
		for _, f := range from {
			if !slices.Contains(to, f) {
				to = append(to, f)
			}
		}
		return to
	}
	o.stalled = add(o.stalled, other.stalled)
	o.wrong = add(o.wrong, other.wrong)
}

// execute builds and runs one simulation from a freshly collected heap.
// Set-up covers the config build, the model solve where the run has one,
// and testbed.New — everything up to the first simulated event. trace, if
// non-nil, is installed as Config.Trace.
func execute(r run, trace func(testbed.TraceEvent)) (*outcome, error) {
	o := &outcome{}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := hostTime()
	cfg := r.wl.TestbedConfig(r.seed, r.warmup, r.duration)
	cfg.Trace = trace
	if r.model {
		m, err := r.wl.Model()
		if err != nil {
			return nil, fmt.Errorf("%s: building model: %w", r.label, err)
		}
		if o.model, err = core.Solve(m); err != nil {
			return nil, fmt.Errorf("%s: solving model: %w", r.label, err)
		}
	}
	tNew := hostTime()
	sys, err := testbed.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: building testbed: %w", r.label, err)
	}
	tRun := hostTime()
	o.res = sys.Run()
	o.simTime = hostTime() - tRun
	runtime.ReadMemStats(&after)
	o.alloc = after.TotalAlloc - before.TotalAlloc
	o.gcs = after.NumGC - before.NumGC
	o.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	o.setup = tRun - t0
	o.newTime = tRun - tNew
	o.sys = sys
	o.digest = digest(o.res)
	o.commits = commits(o.res)
	o.simHours = (r.warmup + o.res.Window) / hour

	want := r.duration - r.warmup
	if o.res.Window < want-1e-6 {
		o.stalled = append(o.stalled, fmt.Sprintf("%s: stopped making progress at %.0f s of %.0f s simulated (every process parked, event queue empty)",
			r.label, (r.warmup+o.res.Window)/1000, r.duration/1000))
	}
	if o.model != nil {
		if pct := modelVsSimPct(o.model, o.res); math.Abs(pct) > modelBandPct || math.IsNaN(pct) {
			o.wrong = append(o.wrong, fmt.Sprintf("%s: model-vs-simulation throughput %+.1f%% is outside ±%d%%", r.label, pct, modelBandPct))
		}
	}
	return o, nil
}

// hostTime returns the process's CPU time, user plus system, over all its
// threads. The benchmark's host times are CPU time and not elapsed time:
// on a shared virtual machine the hypervisor steals CPU from the guest
// now and then, which stretches elapsed time by tens of percent while the
// process's CPU time, which the kernel accounts net of steal, does not
// move. The simulation itself is single-threaded; the garbage collector's
// background work on the other CPU counts as the cost it is.
func hostTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// digest is the SHA-256 of a Results value's full printed form (maps
// print in key order and floats in shortest round-trip form, so equal
// results give equal digests).
func digest(res testbed.Results) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", res)))
	return hex.EncodeToString(sum[:])
}

func commits(res testbed.Results) int64 {
	var n int64
	for _, nr := range res.Nodes {
		for _, c := range nr.Commits {
			n += c
		}
	}
	return n
}

// modelVsSimPct is the model's total committed throughput relative to the
// simulator's, in percent (the paper's validation).
func modelVsSimPct(m *core.Result, res testbed.Results) float64 {
	var model, sim float64
	for i, s := range m.Sites {
		model += s.TotalTxnThroughput * 1000 // per ms -> per s
		sim += res.Nodes[i].TotalTxnThroughput
	}
	return (model - sim) / sim * 100
}

// emptyTenths returns the tenths of the configured measurement window in
// which the run committed nothing (commit times in simulated ms).
func emptyTenths(r run, commitTimes []float64) []int {
	var seen [10]bool
	window := r.duration - r.warmup
	for _, t := range commitTimes {
		if t < r.warmup || t >= r.duration {
			continue
		}
		seen[int((t-r.warmup)/window*10)] = true
	}
	var empty []int
	for i, ok := range seen {
		if !ok {
			empty = append(empty, i)
		}
	}
	return empty
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a workload's result: the final JSON line plus the human
// lines printed before it.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	names []string // metric print order
	notes []string // failures and digests, printed before the JSON line
}

func newReport() *report { return &report{Correct: true, Metrics: make(map[string]metric)} }

func (rp *report) set(name string, v float64, unit string) {
	if _, ok := rp.Metrics[name]; !ok {
		rp.names = append(rp.names, name)
	}
	rp.Metrics[name] = metric{Value: v, Unit: unit}
}

// tally counts one run against the report.
func (rp *report) tally(o *outcome) {
	rp.Attempted++
	if o.failed() {
		rp.Failed++
	}
	if len(o.wrong) > 0 {
		rp.Correct = false
	}
	rp.notef(append(append([]string(nil), o.wrong...), o.stalled...)...)
}

// notef records each distinct note once.
func (rp *report) notef(notes ...string) {
	for _, n := range notes {
		dup := false
		for _, have := range rp.notes {
			dup = dup || have == n
		}
		if !dup {
			rp.notes = append(rp.notes, n)
		}
	}
}

// combinedDigest is the SHA-256 over a workload's per-run digests.
func combinedDigest(digests []string) string {
	sum := sha256.Sum256([]byte(strings.Join(digests, "\n")))
	return hex.EncodeToString(sum[:])
}

// measure is the untraced timed pass: it repeats the workload's runs
// while another repetition fits in the time budget (at least once) and
// reports the end-to-end metrics as medians over the repetitions. Every
// repetition of a run must reproduce its first Results digest.
//
// Rates are taken per base run (paradigm, on cc-contention) and then
// combined with equal weight: the paradigms run ten times apart in host
// cost per commit, so pooling their totals would make the figure swing
// with how many 2PL runs stopped early at a given seed.
func measure(sp spec, seed uint64, budget time.Duration) (*report, error) {
	runs := sp.runs(seed)
	groups := len(runs) / sp.seeds
	rp := newReport()
	digests := make([]string, len(runs))
	var txnPerS, wallPerHour, allocPerTxn, setup []float64
	start := time.Now()
	var last time.Duration
	for rep := 0; rep == 0 || time.Since(start)+last <= budget; rep++ {
		repStart := time.Now()
		host := make([]time.Duration, groups)
		commits := make([]int64, groups)
		hours := make([]float64, groups)
		alloc := make([]uint64, groups)
		var set time.Duration
		for i, r := range runs {
			o, err := execute(r, nil)
			if err != nil {
				return nil, err
			}
			if digests[i] == "" {
				digests[i] = o.digest
			} else if o.digest != digests[i] {
				o.wrong = append(o.wrong, fmt.Sprintf("%s: repetition %d produced Results %s, first produced %s", r.label, rep, o.digest, digests[i]))
			}
			rp.tally(o)
			g := i % groups
			host[g] += o.simTime
			commits[g] += o.commits
			hours[g] += o.simHours
			alloc[g] += o.alloc
			set += o.setup
		}
		var secPerTxn, secPerHour, bytesPerTxn float64
		for g := range host {
			secPerTxn += host[g].Seconds() / float64(commits[g])
			secPerHour += host[g].Seconds() / hours[g]
			bytesPerTxn += float64(alloc[g]) / float64(commits[g])
		}
		txnPerS = append(txnPerS, float64(groups)/secPerTxn)
		wallPerHour = append(wallPerHour, secPerHour/float64(groups))
		allocPerTxn = append(allocPerTxn, bytesPerTxn/float64(groups))
		setup = append(setup, set.Seconds())
		last = time.Since(repStart)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rp.set("txn_per_wall_s", quantile(txnPerS, 0.5), "1/s")
	rp.set("wall_s_per_sim_hour", quantile(wallPerHour, 0.5), "s/h")
	rp.set("alloc_bytes_per_txn", quantile(allocPerTxn, 0.5), "B")
	rp.set("peak_rss_mb", rss, "MB")
	rp.set("setup_s", quantile(setup, 0.5), "s")
	rp.set("passed_run_share", float64(rp.Attempted-rp.Failed)/float64(rp.Attempted), "share")
	rp.notef(fmt.Sprintf("results-sha256 %s %s (%d repetitions of %d runs)", sp.name, combinedDigest(digests), rp.Attempted/len(runs), len(runs)))
	return rp, nil
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
