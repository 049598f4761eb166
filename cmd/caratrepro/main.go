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
	"strings"

	"carat"
	"carat/cmd/internal/cli"
)

var (
	shared = cli.Register(cli.RunFlags)

	only   = flag.String("only", "", "one artifact: fig5..fig10 or table1..table5 (default all)")
	format = flag.String("format", "text", "output format: text or markdown")
)

func main() {
	shared.Parse()
	markdown := strings.EqualFold(*format, "markdown") || strings.EqualFold(*format, "md")
	opts := shared.SimOptions()

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
		opts.Progress = cli.Progress(a.name, "runs")
		out, err := a.run()
		if err != nil {
			cli.Check(fmt.Errorf("%s: %w", a.name, err))
		}
		fmt.Println(out)
		fmt.Println(strings.Repeat("=", 78))
	}
	if !matched {
		cli.Check(fmt.Errorf("unknown artifact %q (want fig5..fig10, figr, or table1..table5)", *only))
	}
}
