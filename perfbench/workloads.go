package main

import (
	"fmt"

	"carat/internal/experiment"
	"carat/internal/placement"
	"carat/internal/storage"
	"carat/internal/testbed"
	"carat/internal/workload"
)

// run is one simulation of a benchmark workload: a workload description,
// the simulated window it runs for, and whether its analytical model is
// solved as part of set-up (and checked against the simulation).
type run struct {
	label    string
	seed     uint64
	wl       workload.Workload
	warmup   float64 // simulated ms discarded before measuring
	duration float64 // simulated ms including the warmup
	model    bool
}

// spec is one named benchmark workload: the runs it makes at one seed
// (base), repeated at seeds derived from the benchmark seed.
type spec struct {
	name string
	// seeds is how many seeds the base runs are repeated at. The 2PL stall
	// (see README.md) strikes a run at random, so one seed's failure share
	// would jump between values from one benchmark seed to the next; over
	// several seeds it is a proportion that stays steady.
	seeds int
	base  func() []run
}

// runs returns the workload's runs at a benchmark seed: the base runs at
// experiment.RepSeed(seed, 8, i) for each of the spec's seeds, the first
// being the benchmark seed itself.
func (sp spec) runs(seed uint64) []run {
	var out []run
	for i := 0; i < sp.seeds; i++ {
		s := experiment.RepSeed(seed, 8, i)
		for _, r := range sp.base() {
			r.seed = s
			r.label = fmt.Sprintf("%s/seed-%d", r.label, s)
			out = append(out, r)
		}
	}
	return out
}

const (
	minute = 60_000.0
	hour   = 60 * minute
)

// specs are the benchmark's workloads; README.md says why each was chosen
// and which layers it exercises.
var specs = []spec{
	{
		name: "paper-mb8",
		// The MB8 n=8 run stalls too (see README.md), on about one seed in
		// 150. Over 20 seeds that struck one benchmark seed in eight, often
		// enough that three of ten benchmark seeds could read one failed
		// run short — a spread wider than the bound that lets one new
		// failed run count as a regression. Over 10 seeds it strikes one
		// benchmark seed in sixteen.
		seeds: 10,
		base: func() []run {
			return []run{{label: "MB8-n8", wl: workload.MB8(8), warmup: 2 * minute, duration: hour + 2*minute, model: true}}
		},
	},
	{
		name: "cc-contention",
		// Four seeds keep a repetition short enough that several fit in
		// the time budget; every seed's 2PL run stalls (below), so the
		// failure share does not depend on how many seeds run.
		seeds: 4,
		base: func() []run {
			// The 2PL stall strikes here after a median of about one
			// simulated hour: in one hour it shows on about half of all
			// seeds, so the failure share would swing from one benchmark
			// seed to the next; given twelve hours it shows on every seed
			// tried (160, the latest stopping at 8.1 hours).
			return []run{
				{label: "2PL-detect", wl: ccWorkload(testbed.CC2PL), warmup: 2 * minute, duration: 12*hour + 2*minute},
				{label: "OCC", wl: ccWorkload(testbed.CCOCC), warmup: 2 * minute, duration: hour + 2*minute},
				{label: "QueCC", wl: ccWorkload(testbed.CCQueCC), warmup: 2 * minute, duration: hour + 2*minute},
			}
		},
	},
	{
		name:  "scale-64",
		seeds: 1,
		base: func() []run {
			wl := experiment.ScaleWorkload(placement.Locality, 64, 0.5, 0.5)
			return []run{{label: "SCALE-64", wl: wl, warmup: minute, duration: 16 * minute}}
		},
	},
}

// ccWorkload is the contention lab's hottest cell: the MB4 mix replicated
// four times per site (32 terminals) at n=8 on 400 granules per site with
// Zipf-0.99 record access.
func ccWorkload(prot testbed.CCProtocol) workload.Workload {
	wl := workload.MB4(8)
	base := wl.Users
	users := make([]testbed.UserSpec, 0, 4*len(base))
	for i := 0; i < 4; i++ {
		users = append(users, base...)
	}
	wl.Name = fmt.Sprintf("CC-%v-x4", prot)
	wl.Users = users
	wl.Layout = storage.Layout{Granules: 400, RecordsPerGran: 6}
	wl.Pattern = storage.NewZipf(0.99)
	wl.Concurrency = prot
	return wl
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q (want %s or all)", name, specNames())
}

func specNames() string {
	s := ""
	for i, sp := range specs {
		if i > 0 {
			s += ", "
		}
		s += sp.name
	}
	return s
}

// terminals returns the closed population a run's kernel micro-benchmark
// mirrors: the workload's users, or for an open workload the admitted
// population (sites × MPL cap), homed round-robin and cycling through the
// four kinds as the default open class mix does, a distributed kind's
// remote being the next site.
func terminals(wl workload.Workload) []testbed.UserSpec {
	if wl.Open == nil {
		return wl.Users
	}
	mpl := wl.Resilience.Admission.MaxMPL
	kinds := []testbed.TxnKind{testbed.LRO, testbed.LU, testbed.DRO, testbed.DU}
	out := make([]testbed.UserSpec, 0, wl.NumNodes*mpl)
	for i := 0; i < wl.NumNodes*mpl; i++ {
		home := i % wl.NumNodes
		out = append(out, testbed.UserSpec{
			Kind:   kinds[(i/wl.NumNodes)%len(kinds)],
			Home:   testbed.NodeID(home),
			Remote: testbed.NodeID((home + 1) % wl.NumNodes),
		})
	}
	return out
}
