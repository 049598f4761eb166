// Command carattrace runs a short simulation with protocol tracing and
// prints the event stream: every lock wait, deadlock victim, rollback and
// two-phase-commit step, in simulation-time order. Useful for watching the
// protocols of Section 2 operate — e.g. follow one distributed update from
// TBEGIN through PREPARE acknowledgments, the force-written commit record,
// and the slave commits.
//
// Usage:
//
//	carattrace [-workload MB4] [-n 8] [-seconds 30] [-txn 17] [-cc 2PL]
//	carattrace -faults 'crash=1@10000+5000,lockto=8000' -seconds 30
//	carattrace -open -lambda 1 -resilience 'mpl=4,shed=1' -seconds 30
//	carattrace -sites 16 -placement locality -locality 0.5 -seconds 10
//
// With -sites or -placement the tool traces a generated N-site scale
// configuration (carat.NewScaleConfig; the same directory-driven fleets
// caratsim's scale mode runs) instead of a named workload: -placement
// selects the strategy (hash, range or locality), -locality the home-shard
// affinity fraction, and -lambda the per-site arrival rate. Every message
// on the shared Ethernet fabric prints a `net-hop` event (Node is the
// sender, Granule the destination site). Unknown strategies and site
// counts outside [2, 512] are rejected with the valid values.
//
// With -txn only that transaction's events print. The -faults,
// -partition, -graysites and -resilience flags take caratsim's syntaxes
// (see its package doc). With -faults the stream also carries the
// site-level crash, restart and timeout-abort events; with -partition and
// -graysites it carries the partition, partition-heal, suspect and trust
// events of the failure-detector layer. With -open the
// closed terminals are replaced by Poisson arrivals at -lambda system-wide
// transactions per second, and each arrival prints an `arrival` event at
// its home site (its Txn field is the negated arrival sequence number —
// no submission exists yet); an arrival rejected by a shedding admission
// gate (-resilience 'mpl=N,shed=1') prints `admission-shed` instead of
// entering the system.
package main

import (
	"flag"
	"fmt"

	"carat"
	"carat/cmd/internal/cli"
)

var (
	shared = cli.Register(cli.BaseFlags | cli.ProtocolFlags | cli.OpenFlags)

	seconds = flag.Float64("seconds", 30, "simulated seconds to trace")
	seed    = flag.Uint64("seed", 1, "random seed")
	txn     = flag.Int64("txn", 0, "print only this transaction id (0 = all)")
	sites   = flag.Int("sites", 16, "scale mode: site count in [2,512]")
	placemt = flag.String("placement", "", "scale mode: placement strategy: hash, range or locality")
	localty = flag.Float64("locality", 0.9, "scale mode: home-shard affinity fraction in [0,1]")
)

func main() {
	shared.Parse()
	scaleMode := *placemt != ""
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "sites", "locality":
			scaleMode = true
		}
	})
	var (
		wl  carat.Workload
		err error
	)
	if scaleMode {
		strategy := carat.LocalityPlacement
		if *placemt != "" {
			strategy, err = carat.ParsePlacement(*placemt)
			cli.Check(err)
		}
		wl, err = carat.NewScaleConfig(*sites, strategy, *localty, shared.Lambda)
		cli.Check(err)
	} else {
		wl = shared.Named(shared.N)
	}
	wl = shared.Apply(wl)
	opts := carat.SimOptions{Seed: *seed, WarmupMS: 1, DurationMS: *seconds * 1000}

	count := 0
	_, err = carat.SimulateWithTrace(wl, opts, func(ev carat.TraceEvent) {
		if *txn != 0 && ev.Txn != *txn {
			return
		}
		count++
		g := ""
		if ev.Granule >= 0 {
			g = fmt.Sprintf(" granule=%d", ev.Granule)
		}
		fmt.Printf("%12.1f ms  txn=%-5d %-4s node=%d  %-20s%s\n",
			ev.TimeMS, ev.Txn, ev.Type, ev.Node, ev.Event, g)
	})
	cli.Check(err)
	fmt.Printf("-- %d events over %.0f simulated seconds\n", count, *seconds)
}
