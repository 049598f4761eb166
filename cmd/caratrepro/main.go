// Command caratrepro regenerates every table and figure of the paper's
// evaluation section: Figures 5–10 (LB8 and MB4 sweeps of record
// throughput, CPU utilization, and disk I/O rate) and Tables 3–5 (MB8,
// UB6 and per-type MB4 model-vs-measurement comparisons), plus the
// reference Tables 1 and 2.
//
// Usage:
//
//	caratrepro              # everything (several simulated hours; ~10 s wall)
//	caratrepro -only fig5   # one artifact: fig5..fig10, table1..table5
//	caratrepro -seed 7 -minutes 30
//	caratrepro -reps 8 -workers 4   # mean ±95% CI columns, parallel runs
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"carat"
)

func main() {
	var (
		only    = flag.String("only", "", "one artifact: fig5..fig10 or table1..table5 (default all)")
		seed    = flag.Uint64("seed", 1, "simulation seed")
		minutes = flag.Float64("minutes", 60, "simulated measurement minutes per data point")
		reps    = flag.Int("reps", 1, "independent replications per data point; >1 adds ±95% CI columns")
		workers = flag.Int("workers", 0, "parallel simulation workers for sweeps and -reps (0 = GOMAXPROCS)")
		format  = flag.String("format", "text", "output format: text or markdown")
	)
	flag.Parse()
	markdown := strings.EqualFold(*format, "markdown") || strings.EqualFold(*format, "md")

	warmup := 120_000.0
	opts := carat.SimOptions{
		Seed:         *seed,
		WarmupMS:     warmup,
		DurationMS:   warmup + *minutes*60_000,
		Replications: *reps,
		Workers:      *workers,
	}

	type artifact struct {
		name string
		run  func() (string, error)
	}
	var artifacts []artifact
	for id := 5; id <= 10; id++ {
		id := id
		artifacts = append(artifacts, artifact{
			name: fmt.Sprintf("fig%d", id),
			run: func() (string, error) {
				if markdown {
					return carat.ReproduceFigureMarkdown(id, opts)
				}
				return carat.ReproduceFigure(id, opts)
			},
		})
	}
	artifacts = append(artifacts, artifact{
		name: "figr",
		run: func() (string, error) {
			if markdown {
				return carat.ReproduceExtensionFigureMarkdown(opts)
			}
			return carat.ReproduceExtensionFigure(opts)
		},
	})
	for id := 1; id <= 5; id++ {
		id := id
		artifacts = append(artifacts, artifact{
			name: fmt.Sprintf("table%d", id),
			run: func() (string, error) {
				if markdown {
					return carat.ReproduceTableMarkdown(id, opts)
				}
				return carat.ReproduceTable(id, opts)
			},
		})
	}

	matched := false
	for _, a := range artifacts {
		if *only != "" && !strings.EqualFold(*only, a.name) {
			continue
		}
		matched = true
		// The artifact closures read the shared opts, so installing a
		// per-artifact progress line here is seen by the run below.
		name := a.name
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%s: %d/%d runs", name, done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
		out, err := a.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", a.name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Println(strings.Repeat("=", 78))
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "unknown artifact %q (want fig5..fig10, figr, or table1..table5)\n", *only)
		os.Exit(1)
	}
}
