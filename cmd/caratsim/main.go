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
// defaults to one class per transaction type; -classes overrides it (see
// carat.ParseOpenClasses), -burstfactor/-burston/-burstoff modulate the
// rate with on-off bursts, and -ramp 'AT:RATE,AT:RATE,...' (ms:arrivals/s)
// replaces the constant rate with a piecewise-linear schedule.
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
// The -faults argument is a comma-separated list of key=value settings:
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
// The -partition argument schedules network partitions (semicolon-
// separated; see carat.ParsePartitions). Each entry is either a split
// GROUPS@AT+HEAL — |-separated site lists, e.g. '0,1|2,3@60000+20000'
// splits sites {0,1} from {2,3} at t=60 s for 20 s — or a key=value
// option: mtbf=MS and mean=MS arm a random partition process, split=P
// sets its per-site group probability, and hb=MS / suspect=MS tune the
// heartbeat failure detector. During a partition, messages do not cross
// group boundaries: distributed transactions needing unreachable (or
// suspected) participants are shed at submission, in-flight ones abort
// (presumed abort; in-doubt slaves resolve by cooperative termination at
// heal), and minority-side sites refuse failover reads.
//
// The -graysites argument schedules gray failures (semicolon-separated;
// see carat.ParseGraySites): '1@60000+30000*3/2' runs site 1 with CPU
// service times stretched 3x and disk 2x from t=60 s for 30 s. A single
// factor ('1@60000+30000*3') degrades both resources.
//
// The -resilience argument configures retry, admission control and probe
// retransmission (see carat.ParseResilience):
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
// two-phase locking with write-all-available propagation; see
// carat.ParseReplication):
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
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"carat"
)

func main() {
	var (
		name    = flag.String("workload", "MB4", "workload: LB8, MB4, MB8 or UB6")
		n       = flag.Int("n", 8, "transaction size (requests per transaction)")
		sweep   = flag.Bool("sweep", false, "sweep n over the paper's grid 4,8,12,16,20")
		seed    = flag.Uint64("seed", 1, "random seed (equal seeds reproduce runs exactly)")
		minutes = flag.Float64("minutes", 60, "simulated measurement window in minutes")
		logdisk = flag.Bool("logdisk", false, "give each node a separate log disk")
		buffer  = flag.Float64("buffer", 0, "database buffer hit ratio in [0,1)")
		think   = flag.Float64("think", 0, "user think time in ms")
		dbsize  = flag.Int("dbsize", 0, "database size in blocks per site (0 = paper's 3000)")
		stripes = flag.Int("stripes", 1, "database disk stripes per site")
		cpus    = flag.Int("cpus", 1, "processors per node")
		hot     = flag.Float64("hot", 0, "hotspot: fraction of records that are hot (0 = uniform)")
		hotfrac = flag.Float64("hotfrac", 0.8, "hotspot: fraction of accesses aimed at the hot set")
		pattern = flag.String("pattern", "", "record access pattern: uniform, hotspot or zipf")
		theta   = flag.Float64("zipftheta", 0.99, "zipf: skew exponent for -pattern zipf")
		open    = flag.Bool("open", false, "open workload: Poisson arrivals replace the closed terminals")
		lambda  = flag.Float64("lambda", 1, "open mode: system-wide arrival rate in transactions/s")
		classes = flag.String("classes", "", "open mode: arrival mix, e.g. 'kind=LRO,weight=3;kind=DU,n=4' (see doc comment)")
		bfactor = flag.Float64("burstfactor", 0, "open mode: burst rate multiplier (<=1 = no bursts)")
		bon     = flag.Float64("burston", 0, "open mode: mean burst duration in ms")
		boff    = flag.Float64("burstoff", 0, "open mode: mean gap between bursts in ms")
		ramp    = flag.String("ramp", "", "open mode: piecewise-linear schedule 'AT:RATE,AT:RATE' (ms:arrivals/s)")
		lambdas = flag.String("lambdas", "", "capacity sweep: comma-separated offered rates in transactions/s")
		cc      = flag.String("cc", "2PL", "concurrency control: 2PL, wait-die, wound-wait, timestamp-ordering, occ or quecc")
		ccsweep = flag.String("ccsweep", "", "CC comparison lab: comma-separated MPL multipliers, e.g. '1,2,4' (8m users per cell)")
		scsweep = flag.String("scalesweep", "", "scale-out study: comma-separated per-site arrival rates in txn/s, e.g. '0.5,1.0'")
		sites   = flag.String("sites", "16,64,128", "scale mode: comma-separated site counts in [2,512]")
		placemt = flag.String("placement", "locality", "scale mode: placement strategy: hash, range or locality")
		localty = flag.String("locality", "0.9,0.5,0.1", "scale mode: comma-separated home-shard affinity fractions in [0,1]")
		reps    = flag.Int("reps", 1, "independent replications per point; >1 reports mean ±95% CI")
		workers = flag.Int("workers", 0, "parallel simulation workers for sweeps and -reps (0 = GOMAXPROCS)")
		faults  = flag.String("faults", "", "fault plan, e.g. 'crash=1@60000+10000,lockto=5000' (see doc comment)")
		partStr = flag.String("partition", "", "network partitions, e.g. '0,1|2,3@60000+20000;mtbf=120000' (see doc comment)")
		grayStr = flag.String("graysites", "", "gray failures, e.g. '1@60000+30000*3/2' (see doc comment)")
		chParts = flag.Bool("chaospartitions", false, "with -chaos: also draw scheduled partitions into every run")
		resil   = flag.String("resilience", "", "resilience policy, e.g. 'retries=8,backoff=50,mpl=4,probe=500' (see doc comment)")
		replStr = flag.String("repl", "", "replication policy, e.g. 'R=2,read=quorum' (see doc comment)")
		chaos   = flag.Int("chaos", 0, "run a randomized fault audit with this many runs instead of a measurement")
		asJSON  = flag.Bool("json", false, "emit measurements as JSON")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	flag.Parse()
	if err := startProfiles(*cpuProf, *memProf); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProfiles()

	ccMode, err := carat.ParseConcurrencyControl(*cc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}

	var faultPlan *carat.FaultPlan
	if *faults != "" {
		fp, err := carat.ParseFaultPlan(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		faultPlan = &fp
	}
	if *partStr != "" || *grayStr != "" {
		if faultPlan == nil {
			faultPlan = &carat.FaultPlan{}
		}
		if *partStr != "" {
			if err := carat.ParsePartitions(*partStr, faultPlan); err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(1)
			}
		}
		if *grayStr != "" {
			if err := carat.ParseGraySites(*grayStr, faultPlan); err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(1)
			}
		}
	}
	var resilience *carat.Resilience
	if *resil != "" {
		r, err := carat.ParseResilience(*resil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		resilience = &r
	}
	var replication *carat.ReplicationPolicy
	if *replStr != "" {
		rp, err := carat.ParseReplication(*replStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		replication = &rp
	}
	var openMix []carat.OpenClass
	if *classes != "" {
		mix, err := carat.ParseOpenClasses(*classes)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		openMix = mix
	}
	rampPoints, err := parseRamp(*ramp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	arrivals := carat.OpenArrivals{
		LambdaPerSec: *lambda,
		Burst:        carat.BurstModulation{Factor: *bfactor, OnMeanMS: *bon, OffMeanMS: *boff},
		Ramp:         rampPoints,
		Classes:      openMix,
	}
	grid, err := parseGrid(*lambdas)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}

	if *chaos > 0 {
		wl, err := carat.WorkloadByName(*name, *n)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		if replication != nil {
			wl = wl.WithReplication(*replication)
		}
		wl = wl.WithConcurrencyControl(ccMode)
		runChaos(wl, *chaos, *seed, *chParts, *asJSON)
		return
	}

	ns := []int{*n}
	if *sweep {
		ns = []int{4, 8, 12, 16, 20}
	}
	warmup := 120_000.0
	opts := carat.SimOptions{
		Seed:         *seed,
		WarmupMS:     warmup,
		DurationMS:   warmup + *minutes*60_000,
		Replications: *reps,
		Workers:      *workers,
	}
	if *ccsweep != "" {
		mpls, err := parseMPLs(*ccsweep)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
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
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		siteCounts, err := parseSites(*sites)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		localities, err := parseLocalities(*localty)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		if *scsweep != "" {
			lams, err := parseGrid(*scsweep)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(1)
			}
			runScaleSweep(strategy, siteCounts, localities, lams, opts, *asJSON)
			return
		}
		runScale(strategy, siteCounts[0], localities[0], *lambda, opts, *asJSON)
		return
	}
	for _, size := range ns {
		wl, err := carat.WorkloadByName(*name, size)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		if *logdisk {
			wl = wl.WithSeparateLogDisks()
		}
		if *buffer > 0 {
			wl = wl.WithBufferHitRatio(*buffer)
		}
		if *think > 0 {
			wl = wl.WithThinkTime(*think)
		}
		if *dbsize > 0 {
			wl = wl.WithDatabaseSize(*dbsize)
		}
		if *stripes > 1 {
			wl = wl.WithStripedDatabase(*stripes)
		}
		if *cpus > 1 {
			wl = wl.WithCPUs(*cpus)
		}
		if *hot > 0 {
			wl = wl.WithHotspot(*hot, *hotfrac)
		}
		if *pattern != "" {
			h := *hot
			if h == 0 {
				h = 0.2
			}
			p, err := carat.PatternByName(*pattern, h, *hotfrac, *theta)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(1)
			}
			wl = wl.WithPattern(p)
		}
		wl = wl.WithConcurrencyControl(ccMode)
		if faultPlan != nil {
			wl = wl.WithFaults(*faultPlan)
		}
		if resilience != nil {
			wl = wl.WithResilience(*resilience)
		}
		if replication != nil {
			wl = wl.WithReplication(*replication)
		}
		if len(grid) > 0 {
			if *open || *classes != "" || *bfactor > 1 {
				wl = wl.WithOpenArrivals(arrivals)
			}
			runCapacity(wl, size, grid, opts, *asJSON)
			continue
		}
		if *open {
			wl = wl.WithOpenArrivals(arrivals).WithoutClosedUsers()
		}
		if *reps > 1 {
			runReplicated(wl, size, opts, *asJSON)
			continue
		}
		meas, err := carat.Simulate(wl, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(struct {
				Workload string
				N        int
				Seed     uint64
				*carat.Measurement
			}{wl.Name(), size, *seed, meas}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(1)
			}
			continue
		}
		fmt.Printf("%s  n=%d  seed=%d  window=%.0f min\n", wl.Name(), size, *seed, meas.WindowMS/60000)
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
			if faultPlan != nil {
				fmt.Printf("    avail %.4f  crashes %d  down %.0f ms  aborts crash/timeout %d/%d  in-doubt C/A %d/%d  lost msgs %d\n",
					node.Availability, node.Crashes, node.DowntimeMS,
					node.CrashAborts, node.TimeoutAborts,
					node.InDoubtCommitted, node.InDoubtAborted, node.MessagesLost)
			}
			if *partStr != "" || *grayStr != "" {
				fmt.Printf("    partition aborts/shed %d/%d  suspects %d  gray %.0f ms\n",
					node.PartitionAborts, node.PartitionShed, node.SuspectEvents, node.GrayMS)
			}
			if resilience != nil {
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
			if replication != nil {
				fmt.Printf("    failover reads %d  replica applies %d  quorum reads %d\n",
					node.FailoverReads, node.ReplicaApplies, node.QuorumReads)
			}
			if *open {
				fmt.Printf("    arrivals %d (%.3f/s offered)  in-system mean %.1f peak %.0f  R mean/p50/p95 %.0f/%.0f/%.0f ms\n",
					node.OpenArrivals, node.OpenOfferedPerSec,
					node.OpenMeanInSystem, node.OpenPeakInSystem,
					node.OpenMeanResponseMS, node.OpenP50ResponseMS, node.OpenP95ResponseMS)
			}
		}
		if faultPlan != nil {
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
}

// parseGrid parses the -lambdas comma-separated rate list.
func parseGrid(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var grid []float64
	for _, part := range strings.Split(s, ",") {
		x, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("lambdas: %q: %w", part, err)
		}
		grid = append(grid, x)
	}
	return grid, nil
}

// parseMPLs parses the -ccsweep comma-separated MPL multiplier list.
func parseMPLs(s string) ([]int, error) {
	var mpls []int
	for _, part := range strings.Split(s, ",") {
		m, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("ccsweep: %q: %w", part, err)
		}
		if m < 1 {
			return nil, fmt.Errorf("ccsweep: MPL multiplier %d < 1", m)
		}
		mpls = append(mpls, m)
	}
	return mpls, nil
}

// parseSites parses the -sites comma-separated site-count list, rejecting
// counts outside the scale configurations' [2, 512] range.
func parseSites(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("sites: %q: %w", part, err)
		}
		if c < 2 || c > 512 {
			return nil, fmt.Errorf("sites: %d out of range (valid site counts: 2 through 512)", c)
		}
		counts = append(counts, c)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("sites: empty site-count list")
	}
	return counts, nil
}

// parseLocalities parses the -locality comma-separated affinity list.
func parseLocalities(s string) ([]float64, error) {
	locs, err := parseGrid(s)
	if err != nil {
		return nil, fmt.Errorf("locality: %w", err)
	}
	if len(locs) == 0 {
		return nil, fmt.Errorf("locality: empty affinity list")
	}
	for _, l := range locs {
		if l < 0 || l > 1 {
			return nil, fmt.Errorf("locality: affinity %v out of range (valid affinities: 0 through 1)", l)
		}
	}
	return locs, nil
}

// runScale runs a single generated N-site configuration through the
// standard measurement path and prints the fleet summary with the shared
// wire's metrics.
func runScale(strategy carat.PlacementStrategy, sites int, locality, lambdaPerSite float64, opts carat.SimOptions, asJSON bool) {
	wl, err := carat.NewScaleConfig(sites, strategy, locality, lambdaPerSite)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	meas, err := carat.Simulate(wl, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Workload      string
			Sites         int
			Placement     string
			Locality      float64
			LambdaPerSite float64
			Seed          uint64
			*carat.Measurement
		}{wl.Name(), sites, string(strategy), locality, lambdaPerSite, opts.Seed, meas}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
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
	opts.Progress = func(done, total int) {
		fmt.Fprintf(os.Stderr, "\rscale sweep: %d/%d cells", done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
	report, err := carat.ScaleSweep(strategy, sites, localities, lambdas, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
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
	opts.Progress = func(done, total int) {
		fmt.Fprintf(os.Stderr, "\rCC sweep: %d/%d cells", done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
	report, err := carat.CompareConcurrencyControls(nil, mpls, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
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

// parseRamp parses the -ramp 'AT:RATE,AT:RATE' schedule (ms:arrivals/s).
func parseRamp(s string) ([]carat.RampPoint, error) {
	if s == "" {
		return nil, nil
	}
	var pts []carat.RampPoint
	for _, part := range strings.Split(s, ",") {
		at, rate, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("ramp: %q wants AT:RATE", part)
		}
		var p carat.RampPoint
		var err error
		if p.AtMS, err = strconv.ParseFloat(at, 64); err != nil {
			return nil, fmt.Errorf("ramp: time %q: %w", at, err)
		}
		if p.LambdaPerSec, err = strconv.ParseFloat(rate, 64); err != nil {
			return nil, fmt.Errorf("ramp: rate %q: %w", rate, err)
		}
		pts = append(pts, p)
	}
	return pts, nil
}

// runCapacity runs the -lambdas capacity sweep and prints the saturation
// summary against the closed model's bottleneck bound.
func runCapacity(wl carat.Workload, size int, grid []float64, opts carat.SimOptions, asJSON bool) {
	opts.Progress = func(done, total int) {
		fmt.Fprintf(os.Stderr, "\r%s n=%d: %d/%d capacity runs", wl.Name(), size, done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
	report, err := carat.CapacitySweep(wl, grid, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			N    int
			Seed uint64
			*carat.CapacityReport
		}{size, opts.Seed, report}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
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
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
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
		exit(1)
	}
}

// runReplicated runs one sweep point with -reps > 1: independent parallel
// replications aggregated into mean ±95% CI per metric. A progress line on
// stderr tracks the worker pool.
func runReplicated(wl carat.Workload, size int, opts carat.SimOptions, asJSON bool) {
	opts.Progress = func(done, total int) {
		fmt.Fprintf(os.Stderr, "\r%s n=%d: %d/%d replications", wl.Name(), size, done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
	rm, err := carat.SimulateReplicated(wl, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Workload string
			N        int
			Seed     uint64
			*carat.ReplicatedMeasurement
		}{wl.Name(), size, opts.Seed, rm}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
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
