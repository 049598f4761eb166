package experiment

import (
	"reflect"
	"testing"

	"carat/internal/testbed"
	"carat/internal/workload"
)

// faultyMB4 is MB4 with an aggressive fault plan attached: frequent short
// crashes plus lock and prepare timeouts.
func faultyMB4(n int) workload.Workload {
	wl := workload.MB4(n)
	wl.Faults = &testbed.FaultPlan{
		CrashMTTFMS:       30_000,
		CrashMTTRMS:       2_000,
		PrepareTimeoutMS:  4_000,
		LockWaitTimeoutMS: 8_000,
	}
	return wl
}

// TestFailureSweepSmoke runs a short throughput-vs-crash-rate sweep and
// checks the availability accounting: the fault-free baseline must be fully
// available, and higher crash rates must actually crash sites and degrade
// availability.
func TestFailureSweepSmoke(t *testing.T) {
	opts := quickOpts()
	opts.Warmup = 10_000
	opts.Duration = 180_000
	plan := testbed.FaultPlan{CrashMTTRMS: 2_000, LockWaitTimeoutMS: 8_000}
	pts, err := FailureSweep(workload.MB4(8), []float64{0, 60_000, 20_000}, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	base := pts[0]
	if base.MTTFMS != 0 || base.Crashes != 0 || base.Availability != 1 {
		t.Fatalf("baseline point must be fault-free and fully available, got %+v", base)
	}
	if base.TxnPerSec <= 0 {
		t.Fatalf("baseline goodput = %v, want > 0", base.TxnPerSec)
	}
	for _, p := range pts[1:] {
		if p.Crashes == 0 {
			t.Fatalf("mttf=%v: no crashes in the window", p.MTTFMS)
		}
		if p.Availability >= 1 || p.Availability <= 0 {
			t.Fatalf("mttf=%v: availability = %v, want in (0, 1)", p.MTTFMS, p.Availability)
		}
		if p.TxnPerSec <= 0 || p.TxnPerSec >= base.TxnPerSec {
			t.Fatalf("mttf=%v: goodput %v, want positive and below the baseline %v",
				p.MTTFMS, p.TxnPerSec, base.TxnPerSec)
		}
	}
}

// TestFailureSweepDeterministic pins that the sweep itself is reproducible:
// the same workload, grid and plan give bit-identical points.
func TestFailureSweepDeterministic(t *testing.T) {
	opts := quickOpts()
	opts.Warmup = 10_000
	opts.Duration = 120_000
	plan := testbed.FaultPlan{CrashMTTRMS: 2_000, LockWaitTimeoutMS: 8_000}
	run := func() []FailurePoint {
		pts, err := FailureSweep(workload.MB4(8), []float64{0, 30_000}, plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("two identical failure sweeps diverge")
	}
}

// TestFaultSweepDeterministicAcrossWorkerCounts extends the determinism-
// under-concurrency guarantee to faulted workloads: a replicated sweep with
// a FaultPlan attached must be bit-identical on 1 and 4 workers. This also
// exercises the per-run plan copy — workers validating a shared plan
// concurrently would race (and be caught by -race in CI). FailureSweep's
// points, which share one workload and copies of one plan, must be
// bit-identical on 1 and 4 workers as well.
func TestFaultSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []*RepComparison {
		rcs, err := SweepReplicated(faultyMB4, []int{4, 8}, repOpts(3, workers))
		if err != nil {
			t.Fatal(err)
		}
		return rcs
	}
	one := run(1)
	four := run(4)
	for i := range one {
		if !reflect.DeepEqual(one[i].Reps, four[i].Reps) {
			t.Fatalf("n=%d: faulted results differ between 1 and 4 workers", one[i].N)
		}
	}

	plan := testbed.FaultPlan{
		Crashes:           []testbed.SiteCrash{{Site: 1, AtMS: 40_000, DownForMS: 10_000}},
		CrashMTTRMS:       2_000,
		LockWaitTimeoutMS: 8_000,
	}
	sweep := func(workers int) []FailurePoint {
		pts, err := FailureSweep(workload.MB4(8), []float64{0, 30_000, 20_000}, plan, repOpts(1, workers))
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	if !reflect.DeepEqual(sweep(1), sweep(4)) {
		t.Fatal("failure sweep differs between 1 and 4 workers")
	}
}
