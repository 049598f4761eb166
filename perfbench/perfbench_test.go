package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"carat/internal/testbed"
	"carat/internal/workload"
)

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// shortened returns sp with every run cut to a ten-minute measurement
// window after a one-minute warmup.
func shortened(sp spec) spec {
	short := sp
	short.base = func() []run {
		rs := sp.base()
		for i := range rs {
			rs[i].warmup = minute
			rs[i].duration = 11 * minute
		}
		return rs
	}
	return short
}

// TestSmokeEachWorkload runs both passes of every workload on short
// windows with every check on, and checks that each pass reports exactly
// the metrics BENCHMARK.json declares, with their units.
func TestSmokeEachWorkload(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(specs))
	}
	for _, w := range bf.Workloads {
		sp, err := specByName(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(w.Name, func(t *testing.T) {
			sp := shortened(sp)
			e2e, err := measure(sp, 1, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, e2e, bf.EndToEnd)
			out := t.TempDir()
			layers, err := perLayer(sp, 1, time.Millisecond, out)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, layers, bf.PerLayer)
			if e2e.notes[len(e2e.notes)-1][:len("results-sha256")] != "results-sha256" {
				t.Errorf("no Results digest printed: %q", e2e.notes)
			}
			b, err := os.ReadFile(filepath.Join(out, "trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf struct {
				TraceEvents []traceEvent     `json:"traceEvents"`
				OtherData   map[string]int64 `json:"otherData"`
			}
			if err := json.Unmarshal(b, &tf); err != nil {
				t.Fatalf("trace.json: %v", err)
			}
			if len(tf.TraceEvents) < 100 || len(tf.OtherData) == 0 {
				t.Errorf("trace.json holds %d events and %d counts", len(tf.TraceEvents), len(tf.OtherData))
			}
			if st, err := os.Stat(filepath.Join(out, "cpu.pprof")); err != nil || st.Size() == 0 {
				t.Errorf("cpu.pprof missing or empty: %v", err)
			}
		})
	}
}

func checkReport(t *testing.T, rp *report, want []struct{ Name, Unit string }) {
	t.Helper()
	if !rp.Correct || rp.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d notes=%q", rp.Correct, rp.Attempted, rp.notes)
	}
	if len(rp.Metrics) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(rp.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rp.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s not reported", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		}
	}
}

// TestStallDetector checks that MB8 at n=20, seed 1 — a 2PL-detect run
// that wedges about 12 simulated minutes in — fails both liveness checks,
// and that the paper's central point MB8 at n=8 passes every check.
func TestStallDetector(t *testing.T) {
	mk := func(n int) run {
		return run{label: "MB8", seed: 1, wl: workload.MB8(n), warmup: 2 * minute, duration: hour + 2*minute, model: n == 8}
	}
	stalled, rec := tracedOutcome(t, mk(20))
	if stop := (2*minute + stalled.res.Window) / 1000; stop < 700 || stop > 750 {
		t.Errorf("MB8 n=20 stopped at %.0f s, want about 725 s", stop)
	}
	if len(stalled.stalled) == 0 || !strings.Contains(stalled.stalled[0], "stopped making progress") {
		t.Errorf("window check missed the stall: %q", stalled.stalled)
	}
	if empty := emptyTenths(mk(20), rec.commits); len(empty) < 8 {
		t.Errorf("tenths without a commit = %v, want at least the last eight", empty)
	}

	ok, rec := tracedOutcome(t, mk(8))
	if ok.failed() {
		t.Errorf("MB8 n=8 failed: %q %q", ok.stalled, ok.wrong)
	}
	if empty := emptyTenths(mk(8), rec.commits); len(empty) > 0 {
		t.Errorf("MB8 n=8 has tenths without a commit: %v", empty)
	}
	if v := rec.audit.Audit(ok.sys); len(v) > 0 {
		t.Errorf("MB8 n=8 audit: %q", v)
	}
}

func tracedOutcome(t *testing.T, r run) (*outcome, *recorder) {
	t.Helper()
	rec := newRecorder()
	o, err := execute(r, rec.Record)
	if err != nil {
		t.Fatal(err)
	}
	return o, rec
}

// TestReplayMakesTracedCounts checks that one replay pass makes exactly
// the traced run's access requests to the engines of the run's own
// paradigm and to no other — and, since the lock managers see the
// simulator's own call sequence, that they block exactly where the
// simulator's did.
func TestReplayMakesTracedCounts(t *testing.T) {
	for _, r := range []run{
		{label: "MB8", seed: 2, wl: workload.MB8(8), warmup: minute, duration: 11 * minute},
		{label: "cc-2PL", seed: 1, wl: ccWorkload(testbed.CC2PL), warmup: minute, duration: 11 * minute},
		{label: "cc-OCC", seed: 1, wl: ccWorkload(testbed.CCOCC), warmup: minute, duration: 11 * minute},
		{label: "cc-QueCC", seed: 1, wl: ccWorkload(testbed.CCQueCC), warmup: minute, duration: 11 * minute},
	} {
		_, rec := tracedOutcome(t, r)
		var rp replay
		rp.replayRun(r, rec)
		requests := rec.requests()
		var writes int64
		for _, a := range rec.stream {
			if !a.release && a.write {
				writes++
			}
		}
		if requests == 0 {
			t.Fatalf("%s: traced run made no requests", r.label)
		}
		want := map[testbed.CCProtocol]int64{r.wl.Concurrency: requests}
		got := map[testbed.CCProtocol][]int64{
			testbed.CC2PL:   {rp.lockRequest.n, rp.cc2pl.n},
			testbed.CCOCC:   {rp.occAccess.n},
			testbed.CCQueCC: {rp.queccAccess.n},
		}
		for prot, ns := range got {
			for _, n := range ns {
				if n != want[prot] {
					t.Errorf("%s: %v replay made %d requests, want %d", r.label, prot, n, want[prot])
				}
			}
		}
		if r.wl.Concurrency == testbed.CC2PL {
			if want := rec.counts[testbed.EvLockWait]; rp.lockWaits != want {
				t.Errorf("%s: lock replay blocked %d times, traced run %d", r.label, rp.lockWaits, want)
			}
		}
		if r.wl.Concurrency == testbed.CCOCC && rp.occValidate.n == 0 {
			t.Errorf("%s: occ replay validated nothing", r.label)
		}
		if rp.walBefore.n != writes {
			t.Errorf("%s: wal replay wrote %d before-images for %d update accesses", r.label, rp.walBefore.n, writes)
		}
	}
}
