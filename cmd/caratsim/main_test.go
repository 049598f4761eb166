package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"
)

// TestFlagSet pins the tool's flags — names, types and defaults — so that
// none appears, disappears or changes unnoticed.
func TestFlagSet(t *testing.T) {
	want := []string{
		"buffer float 0",
		"burstfactor float 0",
		"burstoff float 0",
		"burston float 0",
		"cc string 2PL",
		"ccsweep string ",
		"chaos int 0",
		"chaospartitions  false",
		"classes string ",
		"cpuprofile string ",
		"cpus int 1",
		"dbsize int 0",
		"faults string ",
		"graysites string ",
		"hot float 0",
		"hotfrac float 0.8",
		"json  false",
		"lambda float 1",
		"lambdas string ",
		"locality string 0.9,0.5,0.1",
		"logdisk  false",
		"memprofile string ",
		"minutes float 60",
		"n int 8",
		"open  false",
		"partition string ",
		"pattern string ",
		"placement string locality",
		"ramp string ",
		"repl string ",
		"reps int 1",
		"resilience string ",
		"scalesweep string ",
		"seed uint 1",
		"sites string 16,64,128",
		"stripes int 1",
		"sweep  false",
		"think float 0",
		"workers int 0",
		"workload string MB4",
		"zipftheta float 0.99",
	}
	var got []string
	flag.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return // the testing package's own flags
		}
		typ, _ := flag.UnquoteUsage(f)
		got = append(got, strings.Join([]string{f.Name, typ, f.DefValue}, " "))
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flags = %q\nwant %q", got, want)
	}
}
