// Command caratsim runs the CARAT testbed simulator — the reproduction's
// stand-in for the paper's two VAX 11/780s — and prints the measured
// performance.
//
// Usage:
//
//	caratsim [-workload MB4] [-n 8] [-seed 1] [-minutes 60] [-logdisk] ...
//	caratsim -workload MB4 -sweep -reps 8 -workers 4   # mean ±95% CI per point
//	caratsim -workload MB4 -faults 'crash=1@60000+10000,lockto=5000'
//	caratsim -workload MB4 -chaos 20   # randomized fault audit, 20 runs
//	caratsim -workload MB8 -open -lambda 0.8            # open Poisson arrivals
//	caratsim -workload MB8 -lambdas 0.5,0.8,1.0,1.4 -resilience mpl=8  # capacity sweep
//	caratsim -cc quecc -workload MB4 -n 8                # deterministic execution
//	caratsim -ccsweep 1,2,4 -minutes 10                  # 2PL vs QueCC vs OCC lab
//	caratsim -sites 64 -placement hash -lambda 0.5       # one 64-site scale run
//	caratsim -scalesweep 0.5,1.0 -minutes 10             # 16/64/128-site scale-out study
//	caratsim -workload MB8 -cpuprofile cpu.out -memprofile mem.out  # profile a run
//
// The -cpuprofile and -memprofile flags write runtime/pprof profiles of
// whatever the invocation runs (inspect with go tool pprof): CPU samples
// for the whole run and the live heap at its end.
//
// The -sites, -placement and -locality flags select a generated N-site
// scale configuration (carat.NewScaleConfig) instead of a named workload:
// a homogeneous fleet whose granule space is mapped onto home sites by the
// placement directory (hash = uniform striping, range = contiguous shards,
// locality = range shards with a home-shard affinity fraction from
// -locality), every inter-site message riding a shared contended Ethernet
// fabric, and open arrivals at -lambda transactions/s per site. Unknown
// strategies and site counts outside [2, 512] are rejected with the valid
// values. With -scalesweep L1,L2,... the tool instead runs the full
// scale-out study — every -sites count crossed with every -locality level
// and every per-site rate — and prints the bottleneck-migration table:
// per-cell throughput, the maximum CPU/disk/TM utilization over the sites,
// the shared wire's utilization with its per-message contention inflation
// and queueing delay, and which center binds.
//
// The -cc flag selects the concurrency-control paradigm
// (case-insensitive): 2PL (deadlock detection, the paper's scheme),
// wait-die, wound-wait, timestamp-ordering, occ (optimistic, backward
// validation at commit) or quecc (deterministic queue-ordered execution).
// Unknown names are rejected with the valid list. With -ccsweep M1,M2,...
// the tool instead runs the comparison lab: the default protocol trio
// (2PL, QueCC, OCC) crossed with three contention levels (uniform, 80/20
// hotspot, zipf-0.99) and the given MPL multipliers (8m users per cell),
// reporting throughput, abort rate and paradigm-specific counters.
//
// With -open the simulator runs an open workload: transactions arrive in
// per-site Poisson streams at -lambda arrivals/s system-wide instead of
// being resubmitted by the closed terminals (which are removed). The mix
// defaults to one class per transaction type; -burstfactor/-burston/
// -burstoff modulate the rate with on-off bursts, and -ramp
// 'AT:RATE,AT:RATE,...' (ms:arrivals/s) replaces the constant rate with a
// piecewise-linear schedule. -classes overrides the mix: classes separated
// by ';', each a comma-separated list of key=value settings, e.g.
// 'kind=LRO,weight=3;kind=DU,weight=1,n=4,rf=0.25,pattern=zipf':
//
//	kind=TYPE      transaction type: LRO, LU, DRO or DU (required)
//	weight=X       relative share of arrivals (default 1)
//	n=N            requests per transaction (default: the workload's n)
//	rf=F           remote fraction for distributed types (default: workload's)
//	pattern=NAME   record access: uniform, hotspot or zipf (default: workload's)
//	hot=F          hotspot: hot fraction of records (default 0.2)
//	frac=F         hotspot: share of accesses aimed at the hot set (default 0.8)
//	theta=F        zipf: skew exponent (default 0.99)
//
// With -lambdas L1,L2,... the tool instead runs a capacity sweep: one open
// simulation per offered rate, reporting committed throughput and response
// percentiles per point, the saturation knee, and the closed model's
// bottleneck bound 1/D_max (Section 4) for comparison.
//
// The -pattern flag selects the record-access pattern (uniform, the
// paper's assumption; hotspot, the b–c rule shaped by -hot/-hotfrac; zipf,
// shaped by -zipftheta).
//
// The -faults argument is a comma-separated list of key=value settings
// (carattrace takes the same -faults, -partition, -graysites and
// -resilience syntaxes):
//
//	crash=SITE@AT+DOWN  crash site SITE at AT ms for DOWN ms (repeatable)
//	mttf=MS             random crashes: mean time to failure per site
//	mttr=MS             mean outage before restart recovery (default 5000)
//	loss=P              per-message loss probability in [0,1)
//	retrans=MS          retransmission delay per lost message (default 10)
//	delayp=P            probability of extra delay on a hop
//	delayms=MS          mean of the extra exponential delay (default 5)
//	prepto=MS           2PC prepare timeout (presumed abort on expiry)
//	lockto=MS           lock wait timeout
//	backoff=MS          user retry backoff while a slave site is down
//	probeloss=P         per-probe loss probability in [0,1] (no retransmit)
//	probeout=MS         drop every inter-site probe before this instant
//	fseed=N             fault RNG seed (default: fixed stream)
//
// The -partition argument schedules network partitions: semicolon-
// separated entries, each either a split GROUPS@AT+HEAL — |-separated
// site lists, e.g. '0,1|2,3@60000+20000' splits sites {0,1} from {2,3} at
// t=60 s for 20 s — or a key=value option:
//
//	mtbf=MS     random partition process: mean time between partitions
//	mean=MS     mean partition duration (default 10000)
//	split=P     per-site probability of landing in the first group (0.5)
//	hb=MS       failure-detector heartbeat interval (default 250)
//	suspect=MS  suspicion timeout (default 1000)
//
// During a partition, messages do not cross group boundaries: distributed
// transactions needing unreachable (or suspected) participants are shed
// at submission, in-flight ones abort (presumed abort; in-doubt slaves
// resolve by cooperative termination at heal), and minority-side sites
// refuse failover reads.
//
// The -graysites argument schedules gray failures (semicolon-separated
// SITE@AT+FOR*FACTOR or SITE@AT+FOR*CPU/DISK windows): '1@60000+30000*3/2'
// runs site 1 with CPU service times stretched 3x and disk 2x from t=60 s
// for 30 s. A single factor ('1@60000+30000*3') degrades both resources.
//
// The -resilience argument configures retry, admission control and probe
// retransmission (comma-separated key=value settings):
//
//	retries=N       submissions per transaction before abandoning (0 = unlimited)
//	backoff=MS      base exponential backoff between resubmissions
//	maxbackoff=MS   backoff cap (default 32× base)
//	mult=X          backoff multiplier (default 2)
//	jitter=F        symmetric backoff jitter fraction in [0,1]
//	mpl=N           per-site admission cap (0 = no gate)
//	abortrate=R     engage the gate only above R aborts/s (0 = always)
//	window=MS       abort-rate measurement window (default 1000)
//	shed=BOOL       reject excess arrivals instead of queueing them
//	shedbackoff=MS  re-arrival delay for shed arrivals (default 100)
//	probe=MS        re-initiate deadlock probes every MS while blocked
//
// The -repl argument replicates every granule across sites (primary-copy
// two-phase locking with write-all-available propagation; comma-separated
// key=value settings):
//
//	R=N        replication factor (copies per granule; 1 = off)
//	read=MODE  read policy: one (default) or quorum
//
// With -chaos N the tool instead runs N simulations under randomized
// bounded fault plans and resilience policies, audits each against the
// testbed's correctness invariants (2PC atomicity, durability under
// restart replay, transaction conservation, a goodput floor) and exits
// non-zero if any run violates one. Adding -chaospartitions draws
// scheduled network partitions into every run's plan, arming the
// split-brain invariants (replica agreement and post-heal
// reconciliation).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"carat"
	"carat/cmd/internal/cli"
)

var (
	shared = cli.Register(cli.BaseFlags | cli.ShapeFlags | cli.AccessFlags | cli.ProtocolFlags |
		cli.ReplFlags | cli.OpenFlags | cli.OpenMixFlags | cli.RunFlags)

	lambdas = flag.String("lambdas", "", "capacity sweep: comma-separated offered rates in transactions/s")
	ccsweep = flag.String("ccsweep", "", "CC comparison lab: comma-separated MPL multipliers, e.g. '1,2,4' (8m users per cell)")
	scsweep = flag.String("scalesweep", "", "scale-out study: comma-separated per-site arrival rates in txn/s, e.g. '0.5,1.0'")
	sites   = flag.String("sites", "16,64,128", "scale mode: comma-separated site counts in [2,512]")
	placemt = flag.String("placement", "locality", "scale mode: placement strategy: hash, range or locality")
	localty = flag.String("locality", "0.9,0.5,0.1", "scale mode: comma-separated home-shard affinity fractions in [0,1]")
	chParts = flag.Bool("chaospartitions", false, "with -chaos: also draw scheduled partitions into every run")
	chaos   = flag.Int("chaos", 0, "run a randomized fault audit with this many runs instead of a measurement")
	asJSON  = flag.Bool("json", false, "emit measurements as JSON")
	cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProf = flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
)

func main() {
	shared.Parse()
	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	cli.Check(err)
	cli.OnExit(stopProfiles)
	defer stopProfiles()

	var grid []float64
	if *lambdas != "" {
		grid, err = cli.Floats("lambdas", *lambdas, math.Inf(-1), math.Inf(1))
		cli.Check(err)
	}

	if *chaos > 0 {
		wl := shared.Named(shared.N)
		if shared.Replication != nil {
			wl = wl.WithReplication(*shared.Replication)
		}
		runChaos(wl.WithConcurrencyControl(shared.Concurrency), *chaos, shared.Seed, *chParts, *asJSON)
		return
	}

	opts := shared.SimOptions()
	if *ccsweep != "" {
		mpls, err := cli.Ints("ccsweep", *ccsweep, 1, math.MaxInt)
		cli.Check(err)
		runCCSweep(mpls, opts, *asJSON)
		return
	}
	scaleMode := *scsweep != ""
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "sites", "placement", "locality":
			scaleMode = true
		}
	})
	if scaleMode {
		strategy, err := carat.ParsePlacement(*placemt)
		cli.Check(err)
		siteCounts, err := cli.Ints("sites", *sites, 2, 512)
		cli.Check(err)
		localities, err := cli.Floats("locality", *localty, 0, 1)
		cli.Check(err)
		if *scsweep != "" {
			lams, err := cli.Floats("scalesweep", *scsweep, math.Inf(-1), math.Inf(1))
			cli.Check(err)
			runScaleSweep(strategy, siteCounts, localities, lams, opts, *asJSON)
			return
		}
		runScale(strategy, siteCounts[0], localities[0], shared.Lambda, opts, *asJSON)
		return
	}
	for _, size := range shared.Sizes() {
		if len(grid) > 0 {
			runCapacity(shared.ApplyCapacity(shared.Named(size)), size, grid, opts, *asJSON)
			continue
		}
		wl := shared.Apply(shared.Named(size))
		if shared.Reps > 1 {
			runReplicated(wl, size, opts, *asJSON)
			continue
		}
		meas, err := carat.Simulate(wl, opts)
		cli.Check(err)
		if *asJSON {
			cli.JSON(struct {
				Workload string
				N        int
				Seed     uint64
				*carat.Measurement
			}{wl.Name(), size, shared.Seed, meas})
			continue
		}
		printMeasurement(wl, size, meas)
	}
}

// printMeasurement prints one run's per-node measurements, with the fault,
// partition, resilience, replication and open-arrival lines of whichever
// of those the flags switched on.
func printMeasurement(wl carat.Workload, size int, meas *carat.Measurement) {
	fmt.Printf("%s  n=%d  seed=%d  window=%.0f min\n", wl.Name(), size, shared.Seed, meas.WindowMS/60000)
	for i, node := range meas.Nodes {
		fmt.Printf("  Node %c: TR-XPUT %.3f txn/s  records %.1f/s  CPU %.3f  DIO %.1f/s  deadlocks %d\n",
			'A'+i, node.TxnPerSec, node.RecordsPerSec, node.CPUUtilization,
			node.DiskIOPerSec, node.Deadlocks)
		for _, ty := range []carat.TxnType{carat.LocalReadOnly, carat.LocalUpdate, carat.DistributedRead, carat.DistributedUpdate} {
			if x, ok := node.TxnPerSecByType[ty]; ok {
				fmt.Printf("    %-4s X=%.3f±%.3f/s  R=%.0f ms  p95=%.0f ms\n",
					ty, x, node.TxnPerSecCI[ty], node.MeanResponseMS[ty], node.P95ResponseMS[ty])
			}
		}
		if shared.FaultPlan != nil {
			fmt.Printf("    avail %.4f  crashes %d  down %.0f ms  aborts crash/timeout %d/%d  in-doubt C/A %d/%d  lost msgs %d\n",
				node.Availability, node.Crashes, node.DowntimeMS,
				node.CrashAborts, node.TimeoutAborts,
				node.InDoubtCommitted, node.InDoubtAborted, node.MessagesLost)
		}
		if shared.Partition != "" || shared.GraySites != "" {
			fmt.Printf("    partition aborts/shed %d/%d  suspects %d  gray %.0f ms\n",
				node.PartitionAborts, node.PartitionShed, node.SuspectEvents, node.GrayMS)
		}
		if shared.ResiliencePolicy != nil {
			var retried, abandoned int64
			for _, c := range node.Retried {
				retried += c
			}
			for _, c := range node.Abandoned {
				abandoned += c
			}
			fmt.Printf("    retried %d  abandoned %d  shed/delayed %d/%d  admit wait %.1f ms  peak MPL %d  probes lost/resent %d/%d\n",
				retried, abandoned, node.ShedArrivals, node.DelayedArrivals,
				node.MeanAdmitWaitMS, node.PeakMPL, node.ProbesLost, node.ProbesResent)
		}
		if shared.Replication != nil {
			fmt.Printf("    failover reads %d  replica applies %d  quorum reads %d\n",
				node.FailoverReads, node.ReplicaApplies, node.QuorumReads)
		}
		if shared.Open {
			fmt.Printf("    arrivals %d (%.3f/s offered)  in-system mean %.1f peak %.0f  R mean/p50/p95 %.0f/%.0f/%.0f ms\n",
				node.OpenArrivals, node.OpenOfferedPerSec,
				node.OpenMeanInSystem, node.OpenPeakInSystem,
				node.OpenMeanResponseMS, node.OpenP50ResponseMS, node.OpenP95ResponseMS)
		}
	}
	if shared.FaultPlan != nil {
		var degraded int64
		for _, node := range meas.Nodes {
			degraded += node.DegradedCommits
		}
		fmt.Printf("  degraded: %.0f ms with a site down, %d commits during outages\n",
			meas.DegradedMS, degraded)
		if meas.Partitions > 0 {
			fmt.Printf("  partitions: %d taking effect, network severed %.0f ms\n",
				meas.Partitions, meas.PartitionMS)
		}
	}
	fmt.Println()
}

// runScale runs a single generated N-site configuration through the
// standard measurement path and prints the fleet summary with the shared
// wire's metrics.
func runScale(strategy carat.PlacementStrategy, sites int, locality, lambdaPerSite float64, opts carat.SimOptions, asJSON bool) {
	wl, err := carat.NewScaleConfig(sites, strategy, locality, lambdaPerSite)
	cli.Check(err)
	meas, err := carat.Simulate(wl, opts)
	cli.Check(err)
	if asJSON {
		cli.JSON(struct {
			Workload      string
			Sites         int
			Placement     string
			Locality      float64
			LambdaPerSite float64
			Seed          uint64
			*carat.Measurement
		}{wl.Name(), sites, string(strategy), locality, lambdaPerSite, opts.Seed, meas})
		return
	}
	var tps, maxCPU, maxDisk float64
	for _, node := range meas.Nodes {
		tps += node.TxnPerSec
		if node.CPUUtilization > maxCPU {
			maxCPU = node.CPUUtilization
		}
		if node.DiskUtilization > maxDisk {
			maxDisk = node.DiskUtilization
		}
	}
	fmt.Printf("%s  sites=%d  placement=%s  locality=%.2f  λ/site=%.2f/s  seed=%d  window=%.0f min\n",
		wl.Name(), sites, strategy, locality, lambdaPerSite, opts.Seed, meas.WindowMS/60000)
	fmt.Printf("  fleet: committed %.2f txn/s  max CPU util %.3f  max disk util %.3f\n", tps, maxCPU, maxDisk)
	fmt.Printf("  wire: %d msgs (%d bytes)  util %.3f  inflation %.3f ms/msg  queue %.3f ms/msg\n",
		meas.NetMessages, meas.NetBytes, meas.NetUtilization, meas.NetMeanInflationMS, meas.NetMeanQueueMS)
}

// runScaleSweep runs the full scale-out study and prints the
// bottleneck-migration table.
func runScaleSweep(strategy carat.PlacementStrategy, sites []int, localities, lambdas []float64, opts carat.SimOptions, asJSON bool) {
	opts.Progress = cli.Progress("scale sweep", "cells")
	report, err := carat.ScaleSweep(strategy, sites, localities, lambdas, opts)
	cli.Check(err)
	if asJSON {
		cli.JSON(report)
		return
	}
	fmt.Printf("Scale sweep  placement=%s  seed=%d  %d cells\n", report.Strategy, opts.Seed, len(report.Points))
	fmt.Printf("  %5s %8s %7s %9s %7s %9s %8s %9s %7s %9s %9s %9s  %s\n",
		"sites", "locality", "λ/site", "TPS", "abort", "resp ms",
		"CPU", "disk", "TM", "wire", "infl ms", "queue ms", "bottleneck")
	for _, p := range report.Points {
		fmt.Printf("  %5d %8.2f %7.2f %9.1f %7.3f %9.0f %8.2f %9.2f %7.2f %9.2f %9.3f %9.3f  %s\n",
			p.Sites, p.Locality, p.LambdaPerSite, p.CommittedTPS, p.AbortRate, p.MeanResponseMS,
			p.MaxCPUUtil, p.MaxDiskUtil, p.MaxTMUtil, p.WireUtil,
			p.NetMeanInflationMS, p.NetMeanQueueMS, p.Bottleneck)
	}
}

// runCCSweep runs the concurrency-control comparison lab over the default
// protocol trio (2PL-detect, QueCC, OCC) and prints the full grid.
func runCCSweep(mpls []int, opts carat.SimOptions, asJSON bool) {
	opts.Progress = cli.Progress("CC sweep", "cells")
	report, err := carat.CompareConcurrencyControls(nil, mpls, opts)
	cli.Check(err)
	if asJSON {
		cli.JSON(report)
		return
	}
	fmt.Printf("CC comparison  seed=%d  protocols %s  contentions %s\n",
		opts.Seed, strings.Join(report.Protocols, ", "), strings.Join(report.Contentions, ", "))
	fmt.Printf("  %-14s %-14s %6s %9s %7s %8s %10s %8s %8s %10s\n",
		"protocol", "contention", "users", "TPS", "abort", "resp ms",
		"deadlocks", "probes", "v-aborts", "lock waits")
	for _, p := range report.Points {
		fmt.Printf("  %-14s %-14s %6d %9.2f %7.3f %8.0f %10d %8d %8d %10d\n",
			p.Protocol, p.Contention, p.Users, p.CommittedTPS, p.AbortRate,
			p.MeanResponseMS, p.Deadlocks, p.ProbesResent, p.ValidationAborts, p.LockWaits)
	}
}

// runCapacity runs the -lambdas capacity sweep and prints the saturation
// summary against the closed model's bottleneck bound.
func runCapacity(wl carat.Workload, size int, grid []float64, opts carat.SimOptions, asJSON bool) {
	opts.Progress = cli.Progress(fmt.Sprintf("%s n=%d", wl.Name(), size), "capacity runs")
	report, err := carat.CapacitySweep(wl, grid, opts)
	cli.Check(err)
	if asJSON {
		cli.JSON(struct {
			N    int
			Seed uint64
			*carat.CapacityReport
		}{size, opts.Seed, report})
		return
	}
	fmt.Printf("%s  n=%d  seed=%d  capacity sweep over %d offered rates\n",
		report.Workload, size, opts.Seed, len(report.Points))
	for _, p := range report.Points {
		fmt.Printf("  λ=%6.3f/s  offered %6.3f  committed %6.3f  shed %5.3f  abandoned %5.3f  R %7.0f ms  p95 %7.0f ms  N %7.1f\n",
			p.LambdaTPS, p.OfferedTPS, p.CommittedTPS, p.ShedTPS, p.AbandonedTPS,
			p.MeanResponseMS, p.P95ResponseMS, p.MeanInSystem)
	}
	fmt.Printf("  peak committed %.3f txn/s  knee λ=%.3f/s", report.PeakCommittedTPS, report.KneeLambdaTPS)
	if report.BottleneckBoundTPS > 0 {
		fmt.Printf("  bound 1/Dmax %.3f txn/s (measured peak = %.0f%% of bound)",
			report.BottleneckBoundTPS, 100*report.PeakCommittedTPS/report.BottleneckBoundTPS)
	}
	fmt.Println()
	fmt.Println()
}

// runChaos runs the randomized fault audit and exits non-zero if any run
// violates an invariant.
func runChaos(wl carat.Workload, runs int, seed uint64, partitions, asJSON bool) {
	report, err := carat.RunChaos(wl, carat.ChaosOptions{Runs: runs, Seed: seed, Partitions: partitions})
	cli.Check(err)
	if asJSON {
		cli.JSON(report)
	} else {
		fmt.Printf("%s chaos audit: %d runs, fault-free baseline %.2f txn/s\n",
			wl.Name(), len(report.Runs), report.BaselineTPS)
		for _, run := range report.Runs {
			status := "ok"
			if len(run.Violations) > 0 {
				status = fmt.Sprintf("%d VIOLATION(S)", len(run.Violations))
			}
			fmt.Printf("  run %2d  seed %#016x  goodput %7.2f txn/s  %s\n",
				run.Run, run.Seed, run.GoodputTPS, status)
		}
	}
	if bad := report.Violations(); len(bad) > 0 {
		for _, v := range bad {
			fmt.Fprintln(os.Stderr, v)
		}
		cli.Exit(1)
	}
}

// runReplicated runs one sweep point with -reps > 1: independent parallel
// replications aggregated into mean ±95% CI per metric. A progress line on
// stderr tracks the worker pool.
func runReplicated(wl carat.Workload, size int, opts carat.SimOptions, asJSON bool) {
	opts.Progress = cli.Progress(fmt.Sprintf("%s n=%d", wl.Name(), size), "replications")
	rm, err := carat.SimulateReplicated(wl, opts)
	cli.Check(err)
	if asJSON {
		cli.JSON(struct {
			Workload string
			N        int
			Seed     uint64
			*carat.ReplicatedMeasurement
		}{wl.Name(), size, opts.Seed, rm})
		return
	}
	fmt.Printf("%s  n=%d  seed=%d  reps=%d  window=%.0f min  (95%% CI over replications)\n",
		wl.Name(), size, opts.Seed, rm.Replications, rm.WindowMS/60000)
	for i, node := range rm.Nodes {
		fmt.Printf("  Node %c: TR-XPUT %.3f ±%.3f txn/s  records %.1f ±%.1f/s  CPU %.3f ±%.3f  DIO %.1f ±%.1f/s\n",
			'A'+i, node.TxnPerSec.Mean, node.TxnPerSec.HalfWidth,
			node.RecordsPerSec.Mean, node.RecordsPerSec.HalfWidth,
			node.CPUUtilization.Mean, node.CPUUtilization.HalfWidth,
			node.DiskIOPerSec.Mean, node.DiskIOPerSec.HalfWidth)
		for _, ty := range []carat.TxnType{carat.LocalReadOnly, carat.LocalUpdate, carat.DistributedRead, carat.DistributedUpdate} {
			if x, ok := node.TxnPerSecByType[ty]; ok {
				r := node.MeanResponseMS[ty]
				fmt.Printf("    %-4s X=%.3f ±%.3f/s  R=%.0f ±%.0f ms\n", ty, x.Mean, x.HalfWidth, r.Mean, r.HalfWidth)
			}
		}
	}
	fmt.Println()
}
