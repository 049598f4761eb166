// Command perfbench is the repository's benchmark. It runs one named
// workload of the simulator — or all of them — measures it for a time
// budget, checks every run's output, and prints each metric with its unit
// followed, as the last line of standard output, by one JSON object:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with -trace 1 a traced pass produces the per-layer
// metrics and writes a Chrome trace and a CPU profile under -out.
//
// With -workload all (the default) each workload runs in a process of its
// own and the JSON line combines theirs.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload paper-mb8 --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "all", "workload to run: "+specNames()+" or all")
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 30, "host seconds to measure each workload for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from the traced pass")
	out := flag.String("out", ".bench_out", "directory for the traced pass's Chrome trace and CPU profile")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, not %d", *trace))
	}
	if *seconds <= 0 {
		fail(fmt.Errorf("-seconds must be positive"))
	}
	var rp *report
	var err error
	if *name == "all" {
		rp, err = runAll()
	} else {
		rp, err = runOne(*name, *seed, *seconds, *trace, *out)
	}
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(rp)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// runOne runs one workload and prints its notes and metrics.
func runOne(name string, seed uint64, seconds float64, trace int, out string) (*report, error) {
	sp, err := specByName(name)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(seconds * float64(time.Second))
	var rp *report
	if trace == 1 {
		rp, err = perLayer(sp, seed, budget, filepath.Join(out, sp.name))
	} else {
		rp, err = measure(sp, seed, budget)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	for _, n := range rp.notes {
		fmt.Println(n)
	}
	for _, m := range rp.names {
		fmt.Printf("%-16s %-38s %16.6g %s\n", sp.name, m, rp.Metrics[m].Value, rp.Metrics[m].Unit)
	}
	return rp, nil
}

// runAll runs each workload in a process of its own, with the same flags,
// so that no workload's heap, garbage-collector state or peak resident
// set carries into the next. It passes their output through and combines
// their JSON lines into one, keying each metric workload/metric.
func runAll() (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	all := newReport()
	for _, sp := range specs {
		args := []string{"-workload", sp.name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
		rp := newReport()
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), rp); err != nil {
			return nil, fmt.Errorf("%s: reading its result: %w", sp.name, err)
		}
		all.Correct = all.Correct && rp.Correct
		all.Attempted += rp.Attempted
		all.Failed += rp.Failed
		for _, m := range slices.Sorted(maps.Keys(rp.Metrics)) {
			all.set(sp.name+"/"+m, rp.Metrics[m].Value, rp.Metrics[m].Unit)
		}
	}
	return all, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
