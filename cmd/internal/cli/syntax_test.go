package cli

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"carat"
)

// syntaxError checks that err is set and names the flag.
func syntaxError(t *testing.T, flag, in string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("-%s %q accepted", flag, in)
	} else if !strings.HasPrefix(err.Error(), flag+": ") {
		t.Errorf("-%s %q: error %q does not name the flag", flag, in, err)
	}
}

func TestParseFaults(t *testing.T) {
	var f carat.FaultPlan
	in := "crash=1@60000+10000, crash=0@5+6,mttf=1,mttr=2,loss=0.1,retrans=3,delayp=0.2,delayms=4," +
		"prepto=5,lockto=6,backoff=7,probeloss=0.3,probeout=8,fseed=9,"
	if err := parseFaults(in, &f); err != nil {
		t.Fatal(err)
	}
	want := carat.FaultPlan{
		Seed:              9,
		Crashes:           []carat.SiteCrash{{Site: 1, AtMS: 60000, DownForMS: 10000}, {Site: 0, AtMS: 5, DownForMS: 6}},
		CrashMTTFMS:       1,
		CrashMTTRMS:       2,
		MsgLossProb:       0.1,
		MsgRetransmitMS:   3,
		MsgExtraDelayProb: 0.2,
		MsgExtraDelayMS:   4,
		PrepareTimeoutMS:  5,
		LockWaitTimeoutMS: 6,
		RetryBackoffMS:    7,
		ProbeLossProb:     0.3,
		ProbeLossUntilMS:  8,
	}
	if !reflect.DeepEqual(f, want) {
		t.Fatalf("plan = %+v\nwant %+v", f, want)
	}
	for _, bad := range []string{
		"mttf", "crash=1", "crash=1@5", "crash=x@5+6", "crash=1@x+6", "crash=1@5+x",
		"fseed=-1", "lockto=x", "bogus=1",
	} {
		syntaxError(t, "faults", bad, parseFaults(bad, &carat.FaultPlan{}))
	}
}

func TestParsePartitions(t *testing.T) {
	var f carat.FaultPlan
	in := "0,1|2,3@60000+20000; 2|@1+2 ;mtbf=1;mean=2;split=0.4;hb=3;suspect=4"
	if err := parsePartitions(in, &f); err != nil {
		t.Fatal(err)
	}
	want := carat.FaultPlan{
		Partitions: []carat.PartitionSchedule{
			{Groups: [][]int{{0, 1}, {2, 3}}, AtMS: 60000, HealAfterMS: 20000},
			{Groups: [][]int{{2}}, AtMS: 1, HealAfterMS: 2},
		},
		PartitionMTBFMS:     1,
		PartitionMeanMS:     2,
		PartitionSplitProb:  0.4,
		HeartbeatIntervalMS: 3,
		SuspectAfterMS:      4,
	}
	if !reflect.DeepEqual(f, want) {
		t.Fatalf("plan = %+v\nwant %+v", f, want)
	}
	for _, bad := range []string{
		"0|1", "0|1@5", "0|1@x+5", "0|1@5+x", "0|x@5+6", "|@5+6", "mtbf=x", "bogus=1",
	} {
		syntaxError(t, "partition", bad, parsePartitions(bad, &carat.FaultPlan{}))
	}
}

func TestParseGraySites(t *testing.T) {
	var f carat.FaultPlan
	if err := parseGraySites("1@60000+30000*3/2; 0@5+6*4", &f); err != nil {
		t.Fatal(err)
	}
	want := []carat.GrayFailure{
		{Site: 1, AtMS: 60000, ForMS: 30000, CPUFactor: 3, DiskFactor: 2},
		{Site: 0, AtMS: 5, ForMS: 6, CPUFactor: 4, DiskFactor: 4},
	}
	if !reflect.DeepEqual(f.GraySites, want) {
		t.Fatalf("gray sites = %+v\nwant %+v", f.GraySites, want)
	}
	for _, bad := range []string{
		"1@5+6", "1*3", "1@5*3", "x@5+6*3", "1@x+6*3", "1@5+x*3", "1@5+6*x", "1@5+6*3/x",
	} {
		syntaxError(t, "graysites", bad, parseGraySites(bad, &carat.FaultPlan{}))
	}
}

func TestParseResilience(t *testing.T) {
	r, err := parseResilience("retries=8,backoff=50,maxbackoff=400,mult=3,jitter=0.2,mpl=4," +
		"abortrate=0.5,window=500,shed=true,shedbackoff=60,probe=300")
	if err != nil {
		t.Fatal(err)
	}
	want := carat.Resilience{
		Retry: carat.RetryPolicy{MaxAttempts: 8, BaseBackoffMS: 50, MaxBackoffMS: 400, Multiplier: 3, JitterFrac: 0.2},
		Admission: carat.AdmissionPolicy{
			MaxMPL: 4, AbortRateThreshold: 0.5, WindowMS: 500, Shed: true, ShedBackoffMS: 60,
		},
		ProbeRetryMS: 300,
	}
	if r != want {
		t.Fatalf("policy = %+v\nwant %+v", r, want)
	}
	for _, bad := range []string{"mpl", "retries=x", "mpl=1.5", "shed=maybe", "backoff=x", "bogus=1"} {
		_, err := parseResilience(bad)
		syntaxError(t, "resilience", bad, err)
	}
}

func TestParseReplication(t *testing.T) {
	for in, want := range map[string]carat.ReplicationPolicy{
		"R=2":                  {Factor: 2},
		"r=3,read=quorum":      {Factor: 3, ReadQuorum: true},
		"factor=2, read=one":   {Factor: 2},
		"read=read-quorum,R=2": {Factor: 2, ReadQuorum: true},
	} {
		got, err := parseReplication(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if got != want {
			t.Errorf("%q = %+v, want %+v", in, got, want)
		}
	}
	for _, bad := range []string{"R", "R=x", "read=many", "bogus=1"} {
		_, err := parseReplication(bad)
		syntaxError(t, "repl", bad, err)
	}
}

func TestParseOpenClasses(t *testing.T) {
	mix, err := parseOpenClasses("kind=LRO,weight=3;kind=DU,weight=1,n=4,rf=0.25,pattern=zipf,theta=0.8")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 2 {
		t.Fatalf("classes = %d, want 2", len(mix))
	}
	if mix[0].Type != carat.LocalReadOnly || mix[0].Weight != 3 || mix[0].Pattern != nil {
		t.Fatalf("first class: %+v", mix[0])
	}
	if mix[1].Type != carat.DistributedUpdate || mix[1].Requests != 4 || mix[1].RemoteFrac != 0.25 || mix[1].Pattern == nil {
		t.Fatalf("second class: %+v", mix[1])
	}
	// The hotspot shape keys are accepted with their pattern.
	if _, err := parseOpenClasses("kind=LU,pattern=hotspot,hot=0.1,frac=0.9; kind=DRO,pattern=uniform"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"", ";", "weight=2", "kind=XYZ", "kind=LU,weight", "kind=LU,n=x", "kind=LU,weight=x",
		"kind=LU,bogus=1", "kind=LU,pattern=spiral",
	} {
		_, err := parseOpenClasses(bad)
		syntaxError(t, "classes", bad, err)
	}
}

func TestParseRamp(t *testing.T) {
	pts, err := parseRamp("0:0.5, 60000:1.5")
	if err != nil {
		t.Fatal(err)
	}
	want := []carat.RampPoint{{AtMS: 0, LambdaPerSec: 0.5}, {AtMS: 60000, LambdaPerSec: 1.5}}
	if !reflect.DeepEqual(pts, want) {
		t.Fatalf("ramp = %+v, want %+v", pts, want)
	}
	for _, bad := range []string{"", "1", "x:1", "1:x", "0:1,,2:3"} {
		_, err := parseRamp(bad)
		syntaxError(t, "ramp", bad, err)
	}
}

func TestLists(t *testing.T) {
	ints, err := Ints("sites", "16, 64,128", 2, 512)
	if err != nil || !reflect.DeepEqual(ints, []int{16, 64, 128}) {
		t.Fatalf("Ints = %v, %v", ints, err)
	}
	floats, err := Floats("locality", "0.9,0,1", 0, 1)
	if err != nil || !reflect.DeepEqual(floats, []float64{0.9, 0, 1}) {
		t.Fatalf("Floats = %v, %v", floats, err)
	}
	for _, bad := range []string{"", " ", "1", "600", "x", "16,,64"} {
		_, err := Ints("sites", bad, 2, 512)
		syntaxError(t, "sites", bad, err)
	}
	for _, bad := range []string{"", "-0.1", "1.5", "x", "0.5,"} {
		_, err := Floats("locality", bad, 0, 1)
		syntaxError(t, "locality", bad, err)
	}
	if _, err := Floats("lambdas", "-1,1e9", math.Inf(-1), math.Inf(1)); err != nil {
		t.Fatalf("unbounded list rejected: %v", err)
	}
}
