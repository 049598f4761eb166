package experiment

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"carat/internal/testbed"
	"carat/internal/workload"
)

// TestGridStopsAtFirstError gives one job of the grid an invalid
// configuration and checks the engine's failure contract: the error names
// that job, no job starts after the failure is recorded, and Progress sees
// a monotone 1..done sequence over the runs that did complete. With two
// invalid jobs running at once on four workers, the error must name the
// lower one even when the higher one fails first.
func TestGridStopsAtFirstError(t *testing.T) {
	const jobs, bad = 6, 2
	opts := repOpts(1, 1)
	var started, progress []int
	opts.Progress = func(done, total int) {
		if total != jobs {
			t.Errorf("progress total = %d, want %d", total, jobs)
		}
		progress = append(progress, done)
	}
	_, err := runGrid(jobs, opts, func(i int) (testbed.Config, string) {
		started = append(started, i)
		name := fmt.Sprintf("job %d", i)
		if i == bad {
			cfg := workload.MB4(4).TestbedConfig(opts.Seed, opts.Warmup, opts.Duration)
			cfg.Nodes = nil
			return cfg, name
		}
		return workload.MB4(4).TestbedConfig(opts.Seed, opts.Warmup, opts.Duration), name
	})
	if err == nil {
		t.Fatal("expected the invalid job to fail the grid")
	}
	if want := fmt.Sprintf("experiment: job %d: ", bad); !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("error %q does not name the failing job (want prefix %q)", err, want)
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(started, want) {
		t.Fatalf("jobs started = %v, want %v: a job started after the failure", started, want)
	}
	if want := []int{1, 2}; !reflect.DeepEqual(progress, want) {
		t.Fatalf("progress calls = %v, want %v", progress, want)
	}

	const low, high = 1, 3
	for try := 0; try < 50; try++ {
		_, err := runGrid(8, repOpts(1, 4), func(i int) (testbed.Config, string) {
			cfg := workload.MB4(4).TestbedConfig(opts.Seed, opts.Warmup, opts.Duration)
			if i == low || i == high {
				cfg.Nodes = nil
			}
			if i == low {
				time.Sleep(time.Millisecond) // let the higher job fail first
			}
			return cfg, fmt.Sprintf("job %d", i)
		})
		if want := fmt.Sprintf("experiment: job %d: ", low); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("try %d: error %v, want the lower failing job (prefix %q)", try, err, want)
		}
	}
}
