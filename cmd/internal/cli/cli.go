// Package cli is the command-line surface the carat tools share: the flags
// several tools take, each defined once with one default and one help
// text; the key=value syntaxes behind them (documented in caratsim's
// package doc); and the tools' output idioms — fail and exit, indented
// JSON on stdout, progress lines on stderr.
//
// A tool registers the flag groups it takes, parses once, and applies the
// result to a workload:
//
//	shared := cli.Register(cli.BaseFlags | cli.ShapeFlags)
//	shared.Parse()
//	for _, n := range shared.Sizes() {
//		wl := shared.Apply(shared.Named(n))
//		...
//	}
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"carat"
)

// Group selects a set of shared flags.
type Group uint

// The flag groups. A tool registers the union of the groups it takes.
const (
	// BaseFlags: -workload -n -dbsize.
	BaseFlags Group = 1 << iota
	// ShapeFlags: -sweep -logdisk -buffer -think -stripes -cpus.
	ShapeFlags
	// AccessFlags: -hot -hotfrac -pattern -zipftheta.
	AccessFlags
	// ProtocolFlags: -cc -faults -partition -graysites -resilience.
	ProtocolFlags
	// ReplFlags: -repl.
	ReplFlags
	// OpenFlags: -open -lambda.
	OpenFlags
	// OpenMixFlags: -classes -burstfactor -burston -burstoff -ramp.
	OpenMixFlags
	// RunFlags: -seed -minutes -reps -workers.
	RunFlags
)

// Flags holds the shared flags' values. A flag whose group was not
// registered keeps its zero value, which Apply leaves unapplied. Parse
// fills the parsed fields from the raw syntaxes.
type Flags struct {
	groups Group

	Workload string
	N        int
	DBSize   int

	Sweep   bool
	LogDisk bool
	Buffer  float64
	Think   float64
	Stripes int
	CPUs    int

	Hot       float64
	HotFrac   float64
	Pattern   string
	ZipfTheta float64

	CC         string
	Faults     string
	Partition  string
	GraySites  string
	Resilience string

	Repl string

	Open   bool
	Lambda float64

	Classes     string
	BurstFactor float64
	BurstOn     float64
	BurstOff    float64
	Ramp        string

	Seed    uint64
	Minutes float64
	Reps    int
	Workers int

	// Concurrency is the -cc protocol; empty unless ProtocolFlags is
	// registered.
	Concurrency carat.ConcurrencyControl
	// FaultPlan is nil unless -faults, -partition or -graysites is given.
	FaultPlan *carat.FaultPlan
	// ResiliencePolicy is nil unless -resilience is given.
	ResiliencePolicy *carat.Resilience
	// Replication is nil unless -repl is given.
	Replication *carat.ReplicationPolicy

	pattern  *carat.AccessPattern
	arrivals carat.OpenArrivals
}

// Register defines the given groups' flags on the command line.
func Register(groups Group) *Flags { return register(flag.CommandLine, groups) }

func register(fs *flag.FlagSet, groups Group) *Flags {
	f := &Flags{groups: groups}
	if groups&BaseFlags != 0 {
		fs.StringVar(&f.Workload, "workload", "MB4", "workload: LB8, MB4, MB8 or UB6")
		fs.IntVar(&f.N, "n", 8, "transaction size (requests per transaction)")
		fs.IntVar(&f.DBSize, "dbsize", 0, "database size in blocks per site (0 = paper's 3000)")
	}
	if groups&ShapeFlags != 0 {
		fs.BoolVar(&f.Sweep, "sweep", false, "sweep n over the paper's grid 4,8,12,16,20")
		fs.BoolVar(&f.LogDisk, "logdisk", false, "give each node a separate log disk")
		fs.Float64Var(&f.Buffer, "buffer", 0, "database buffer hit ratio in [0,1)")
		fs.Float64Var(&f.Think, "think", 0, "user think time in ms")
		fs.IntVar(&f.Stripes, "stripes", 1, "database disk stripes per site")
		fs.IntVar(&f.CPUs, "cpus", 1, "processors per node")
	}
	if groups&AccessFlags != 0 {
		fs.Float64Var(&f.Hot, "hot", 0, "hotspot: fraction of records that are hot (0 = uniform)")
		fs.Float64Var(&f.HotFrac, "hotfrac", 0.8, "hotspot: fraction of accesses aimed at the hot set")
		fs.StringVar(&f.Pattern, "pattern", "", "record access pattern: uniform, hotspot or zipf")
		fs.Float64Var(&f.ZipfTheta, "zipftheta", 0.99, "zipf: skew exponent for -pattern zipf")
	}
	if groups&ProtocolFlags != 0 {
		fs.StringVar(&f.CC, "cc", "2PL", "concurrency control: 2PL, wait-die, wound-wait, timestamp-ordering, occ or quecc")
		fs.StringVar(&f.Faults, "faults", "", "fault plan, e.g. 'crash=1@60000+10000,lockto=5000' (syntax: caratsim doc)")
		fs.StringVar(&f.Partition, "partition", "", "network partitions, e.g. '0,1|2,3@60000+20000;mtbf=120000' (syntax: caratsim doc)")
		fs.StringVar(&f.GraySites, "graysites", "", "gray failures, e.g. '1@60000+30000*3/2' (syntax: caratsim doc)")
		fs.StringVar(&f.Resilience, "resilience", "", "resilience policy, e.g. 'retries=8,backoff=50,mpl=4,probe=500' (syntax: caratsim doc)")
	}
	if groups&ReplFlags != 0 {
		fs.StringVar(&f.Repl, "repl", "", "replication policy, e.g. 'R=2,read=quorum' (syntax: caratsim doc)")
	}
	if groups&OpenFlags != 0 {
		fs.BoolVar(&f.Open, "open", false, "open workload: Poisson arrivals replace the closed terminals")
		fs.Float64Var(&f.Lambda, "lambda", 1, "open mode: system-wide arrival rate in transactions/s (scale mode: per site)")
	}
	if groups&OpenMixFlags != 0 {
		fs.StringVar(&f.Classes, "classes", "", "open mode: arrival mix, e.g. 'kind=LRO,weight=3;kind=DU,n=4' (syntax: caratsim doc)")
		fs.Float64Var(&f.BurstFactor, "burstfactor", 0, "open mode: burst rate multiplier (<=1 = no bursts)")
		fs.Float64Var(&f.BurstOn, "burston", 0, "open mode: mean burst duration in ms")
		fs.Float64Var(&f.BurstOff, "burstoff", 0, "open mode: mean gap between bursts in ms")
		fs.StringVar(&f.Ramp, "ramp", "", "open mode: piecewise-linear schedule 'AT:RATE,AT:RATE' (ms:arrivals/s)")
	}
	if groups&RunFlags != 0 {
		fs.Uint64Var(&f.Seed, "seed", 1, "random seed (equal seeds reproduce runs exactly)")
		fs.Float64Var(&f.Minutes, "minutes", 60, "simulated measurement window in minutes (per data point)")
		fs.IntVar(&f.Reps, "reps", 1, "independent replications per point; >1 reports mean ±95% CI")
		fs.IntVar(&f.Workers, "workers", 0, "parallel simulation workers for sweeps and -reps (0 = GOMAXPROCS)")
	}
	return f
}

// Parse parses the command line and validates every registered flag's
// syntax, exiting with status 1 on the first error.
func (f *Flags) Parse() {
	flag.Parse()
	Check(f.parse())
}

// parse validates the raw syntaxes and fills the parsed fields.
func (f *Flags) parse() error {
	if f.groups&ProtocolFlags != 0 {
		c, err := carat.ParseConcurrencyControl(f.CC)
		if err != nil {
			return err
		}
		f.Concurrency = c
	}
	if f.Faults != "" || f.Partition != "" || f.GraySites != "" {
		f.FaultPlan = &carat.FaultPlan{}
		if err := parseFaults(f.Faults, f.FaultPlan); err != nil {
			return err
		}
		if err := parsePartitions(f.Partition, f.FaultPlan); err != nil {
			return err
		}
		if err := parseGraySites(f.GraySites, f.FaultPlan); err != nil {
			return err
		}
	}
	if f.Resilience != "" {
		r, err := parseResilience(f.Resilience)
		if err != nil {
			return err
		}
		f.ResiliencePolicy = &r
	}
	if f.Repl != "" {
		r, err := parseReplication(f.Repl)
		if err != nil {
			return err
		}
		f.Replication = &r
	}
	f.arrivals = carat.OpenArrivals{
		LambdaPerSec: f.Lambda,
		Burst:        carat.BurstModulation{Factor: f.BurstFactor, OnMeanMS: f.BurstOn, OffMeanMS: f.BurstOff},
	}
	if f.Classes != "" {
		mix, err := parseOpenClasses(f.Classes)
		if err != nil {
			return err
		}
		f.arrivals.Classes = mix
	}
	if f.Ramp != "" {
		pts, err := parseRamp(f.Ramp)
		if err != nil {
			return err
		}
		f.arrivals.Ramp = pts
	}
	if f.Pattern != "" {
		hot := f.Hot
		if hot == 0 {
			hot = 0.2
		}
		p, err := carat.PatternByName(f.Pattern, hot, f.HotFrac, f.ZipfTheta)
		if err != nil {
			return fmt.Errorf("pattern: %w", err)
		}
		f.pattern = &p
	}
	return nil
}

// Named returns the -workload mix at transaction size n, exiting on an
// unknown name.
func (f *Flags) Named(n int) carat.Workload {
	wl, err := carat.WorkloadByName(f.Workload, n)
	Check(err)
	return wl
}

// Sizes returns the transaction sizes to run: -n, or the paper's grid
// with -sweep.
func (f *Flags) Sizes() []int {
	if f.Sweep {
		return []int{4, 8, 12, 16, 20}
	}
	return []int{f.N}
}

// SimOptions returns the run group's simulation options: a two-minute
// warmup ahead of a -minutes measurement window.
func (f *Flags) SimOptions() carat.SimOptions {
	const warmup = 120_000.0
	return carat.SimOptions{
		Seed:         f.Seed,
		WarmupMS:     warmup,
		DurationMS:   warmup + f.Minutes*60_000,
		Replications: f.Reps,
		Workers:      f.Workers,
	}
}

// Apply applies the registered flags to wl in one fixed order — shape,
// access pattern, protocol, faults, resilience, replication — and, with
// -open, replaces the closed terminals with the open arrival process.
func (f *Flags) Apply(wl carat.Workload) carat.Workload {
	wl = f.configure(wl)
	if f.Open {
		wl = wl.WithOpenArrivals(f.arrivals).WithoutClosedUsers()
	}
	return wl
}

// ApplyCapacity is Apply for a capacity sweep, which sets the arrival rate
// per point itself and needs the closed terminals for its bound and
// default mix: the terminals stay, and an arrival shape given by -open,
// -classes or -burstfactor is attached.
func (f *Flags) ApplyCapacity(wl carat.Workload) carat.Workload {
	wl = f.configure(wl)
	if f.Open || f.Classes != "" || f.BurstFactor > 1 {
		wl = wl.WithOpenArrivals(f.arrivals)
	}
	return wl
}

func (f *Flags) configure(wl carat.Workload) carat.Workload {
	if f.LogDisk {
		wl = wl.WithSeparateLogDisks()
	}
	if f.Buffer > 0 {
		wl = wl.WithBufferHitRatio(f.Buffer)
	}
	if f.Think > 0 {
		wl = wl.WithThinkTime(f.Think)
	}
	if f.DBSize > 0 {
		wl = wl.WithDatabaseSize(f.DBSize)
	}
	if f.Stripes > 1 {
		wl = wl.WithStripedDatabase(f.Stripes)
	}
	if f.CPUs > 1 {
		wl = wl.WithCPUs(f.CPUs)
	}
	if f.Hot > 0 {
		wl = wl.WithHotspot(f.Hot, f.HotFrac)
	}
	if f.pattern != nil {
		wl = wl.WithPattern(*f.pattern)
	}
	if f.Concurrency != "" {
		wl = wl.WithConcurrencyControl(f.Concurrency)
	}
	if f.FaultPlan != nil {
		wl = wl.WithFaults(*f.FaultPlan)
	}
	if f.ResiliencePolicy != nil {
		wl = wl.WithResilience(*f.ResiliencePolicy)
	}
	if f.Replication != nil {
		wl = wl.WithReplication(*f.Replication)
	}
	return wl
}

// atExit runs before Exit ends the process. A tool sets it once, at
// start-up, through OnExit.
var atExit = func() {}

// OnExit makes fn run before Exit ends the process; caratsim finishes its
// profiles this way.
func OnExit(fn func()) { atExit = fn }

// Exit runs the OnExit hook, then exits with code.
func Exit(code int) {
	atExit()
	os.Exit(code)
}

// Check prints a non-nil err to stderr and exits with status 1.
func Check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		Exit(1)
	}
}

// JSON writes v to stdout as indented JSON.
func JSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	Check(enc.Encode(v))
}

// Progress returns a progress callback that rewrites one stderr line,
// "label: done/total unit", and ends it when the last run completes.
func Progress(label, unit string) func(done, total int) {
	return func(done, total int) {
		fmt.Fprintf(os.Stderr, "\r%s: %d/%d %s", label, done, total, unit)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
}
