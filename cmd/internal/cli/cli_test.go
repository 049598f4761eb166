package cli

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"carat"
)

// flagTable lists a flag set as "name type default" lines, the way -h
// shows them.
func flagTable(fs *flag.FlagSet) []string {
	var out []string
	fs.VisitAll(func(f *flag.Flag) {
		typ, _ := flag.UnquoteUsage(f)
		out = append(out, strings.Join([]string{f.Name, typ, f.DefValue}, " "))
	})
	return out
}

// TestGroupFlags pins every group's flags: names, types and defaults.
func TestGroupFlags(t *testing.T) {
	for _, tc := range []struct {
		group Group
		want  []string
	}{
		{BaseFlags, []string{"dbsize int 0", "n int 8", "workload string MB4"}},
		{ShapeFlags, []string{"buffer float 0", "cpus int 1", "logdisk  false", "stripes int 1", "sweep  false", "think float 0"}},
		{AccessFlags, []string{"hot float 0", "hotfrac float 0.8", "pattern string ", "zipftheta float 0.99"}},
		{ProtocolFlags, []string{"cc string 2PL", "faults string ", "graysites string ", "partition string ", "resilience string "}},
		{ReplFlags, []string{"repl string "}},
		{OpenFlags, []string{"lambda float 1", "open  false"}},
		{OpenMixFlags, []string{"burstfactor float 0", "burstoff float 0", "burston float 0", "classes string ", "ramp string "}},
		{RunFlags, []string{"minutes float 60", "reps int 1", "seed uint 1", "workers int 0"}},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		register(fs, tc.group)
		if got := flagTable(fs); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("group %d flags = %q\nwant %q", tc.group, got, tc.want)
		}
	}
}

// parsed registers groups on a fresh flag set and parses args.
func parsed(t *testing.T, groups Group, args ...string) (*Flags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := register(fs, groups)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f, f.parse()
}

// TestParse checks that only registered groups are validated and that
// every syntax error names its flag.
func TestParse(t *testing.T) {
	f, err := parsed(t, BaseFlags|ShapeFlags)
	if err != nil || f.Concurrency != "" || f.FaultPlan != nil {
		t.Fatalf("unregistered protocol group parsed: %+v, %v", f, err)
	}
	f, err = parsed(t, ProtocolFlags, "-cc", "optimistic", "-graysites", "1@5+6*2")
	if err != nil {
		t.Fatal(err)
	}
	if f.Concurrency != carat.OptimisticCC || f.FaultPlan == nil || len(f.FaultPlan.GraySites) != 1 {
		t.Fatalf("protocol group parsed to %q, %+v", f.Concurrency, f.FaultPlan)
	}
	for _, args := range [][]string{
		{"-cc", "bogus"}, {"-faults", "x"}, {"-partition", "x"}, {"-graysites", "x"},
		{"-resilience", "x"}, {"-repl", "x"}, {"-classes", "x"}, {"-ramp", "x"}, {"-pattern", "x"},
	} {
		_, err := parsed(t, BaseFlags|AccessFlags|ProtocolFlags|ReplFlags|OpenFlags|OpenMixFlags, args...)
		if name := strings.TrimPrefix(args[0], "-"); err == nil || !strings.HasPrefix(err.Error(), name+": ") {
			t.Errorf("%v: error %v does not name the flag", args, err)
		}
	}
}

// TestApply pins which workload change each flag makes, with -open and in
// a capacity sweep.
func TestApply(t *testing.T) {
	all := BaseFlags | ShapeFlags | AccessFlags | ProtocolFlags | ReplFlags | OpenFlags | OpenMixFlags
	closed := carat.WorkloadMB4(8).WithSeparateLogDisks().WithBufferHitRatio(0.3).WithThinkTime(100).
		WithDatabaseSize(500).WithStripedDatabase(2).WithCPUs(2).
		WithPattern(carat.ZipfPattern(0.9)).
		WithConcurrencyControl(carat.QueCC).
		WithFaults(carat.FaultPlan{LockWaitTimeoutMS: 5000, PartitionMTBFMS: 9}).
		WithResilience(carat.Resilience{Admission: carat.AdmissionPolicy{MaxMPL: 4}}).
		WithReplication(carat.ReplicationPolicy{Factor: 2})
	shaped := closed.WithOpenArrivals(carat.OpenArrivals{
		LambdaPerSec: 2,
		Burst:        carat.BurstModulation{Factor: 3, OnMeanMS: 10, OffMeanMS: 20},
		Ramp:         []carat.RampPoint{{AtMS: 0, LambdaPerSec: 1}, {AtMS: 5, LambdaPerSec: 2}},
		Classes:      []carat.OpenClass{{Type: carat.LocalUpdate}},
	})
	plain := carat.WorkloadMB4(8).WithConcurrencyControl(carat.TwoPhaseLocking)
	burst := carat.OpenArrivals{LambdaPerSec: 1, Burst: carat.BurstModulation{Factor: 3, OnMeanMS: 10, OffMeanMS: 20}}
	for _, tc := range []struct {
		args            []string
		apply, capacity carat.Workload
	}{
		{nil, plain, plain},
		{[]string{
			"-logdisk", "-buffer", "0.3", "-think", "100", "-dbsize", "500", "-stripes", "2", "-cpus", "2",
			"-pattern", "zipf", "-zipftheta", "0.9", "-cc", "quecc", "-faults", "lockto=5000", "-partition", "mtbf=9",
			"-resilience", "mpl=4", "-repl", "R=2", "-open", "-lambda", "2", "-classes", "kind=LU",
			"-burstfactor", "3", "-burston", "10", "-burstoff", "20", "-ramp", "0:1,5:2",
		}, shaped.WithoutClosedUsers(), shaped},
		{[]string{"-hot", "0.1", "-hotfrac", "0.7"}, plain.WithHotspot(0.1, 0.7), plain.WithHotspot(0.1, 0.7)},
		{[]string{"-pattern", "hotspot"}, plain.WithPattern(carat.HotspotPattern(0.2, 0.8)), plain.WithPattern(carat.HotspotPattern(0.2, 0.8))},
		{[]string{"-burstfactor", "3", "-burston", "10", "-burstoff", "20"}, plain, plain.WithOpenArrivals(burst)},
	} {
		f, err := parsed(t, all, tc.args...)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Apply(f.Named(8)); !reflect.DeepEqual(got, tc.apply) {
			t.Errorf("%v: Apply does not match the flags' With* chain", tc.args)
		}
		if got := f.ApplyCapacity(f.Named(8)); !reflect.DeepEqual(got, tc.capacity) {
			t.Errorf("%v: ApplyCapacity does not match the flags' With* chain", tc.args)
		}
	}
}

func TestSizesAndSimOptions(t *testing.T) {
	f, err := parsed(t, BaseFlags|ShapeFlags|RunFlags, "-n", "12", "-seed", "7", "-minutes", "2", "-reps", "3", "-workers", "4")
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Sizes(); !reflect.DeepEqual(got, []int{12}) {
		t.Errorf("Sizes = %v, want [12]", got)
	}
	want := carat.SimOptions{Seed: 7, WarmupMS: 120_000, DurationMS: 240_000, Replications: 3, Workers: 4}
	if got := f.SimOptions(); !reflect.DeepEqual(got, want) {
		t.Errorf("SimOptions = %+v, want %+v", got, want)
	}
	f.Sweep = true
	if got := f.Sizes(); !reflect.DeepEqual(got, []int{4, 8, 12, 16, 20}) {
		t.Errorf("Sizes with -sweep = %v", got)
	}
}
