package sim

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
)

// acquireHoldRelease is the reference composition of a station visit: the
// process itself acquires the server, holds for the service time and
// releases. Use must produce the same dispatch order, clock readings and
// station statistics with fewer coroutine resumes.
func acquireHoldRelease(r *Resource, p *Proc, d float64) error {
	if err := r.Acquire(p); err != nil {
		return err
	}
	p.Hold(d)
	r.Release()
	return nil
}

// interleaveTrace runs a small world of actors whose behavior is scripted
// by the fuzz input: each actor repeatedly holds, parks on a shared event
// or queue, visits a shared single-server station through Resource.Use, or
// interrupts another actor, then the test runs the kernel and shuts it
// down. It returns a textual trace of everything that happened, clock
// readings printed exactly, so the fuzzer can assert determinism, and
// panics (failing the fuzz run) if the kernel misbehaves.
func interleaveTrace(script []byte) string {
	trace, _ := interleaveTraceWith(script, (*Resource).Use)
	return trace
}

// interleaveTraceWith is interleaveTrace with the station visit made by
// use: (*Resource).Use, or the acquireHoldRelease reference it must be
// indistinguishable from. It also returns the number of coroutine resumes
// the run took.
func interleaveTraceWith(script []byte, use func(r *Resource, p *Proc, d float64) error) (string, int64) {
	e := NewEnv()
	ev := NewEvent(e, "ev")
	q := NewQueue[int](e, "q")
	r := NewResource(e, "r", 1)
	var trace []string
	emit := func(format, who string, args ...any) {
		trace = append(trace, fmt.Sprintf("%v %s "+format, append([]any{e.Now(), who}, args...)...))
	}

	const actors = 4
	procs := make([]*Proc, actors)
	for a := 0; a < actors; a++ {
		a := a
		who := fmt.Sprintf("a%d", a)
		// Each actor consumes the bytes at positions a, a+actors, ...
		var ops []byte
		for i := a; i < len(script); i += actors {
			ops = append(ops, script[i])
		}
		procs[a] = e.Spawn(who, func(p *Proc) {
			for _, op := range ops {
				switch op % 6 {
				case 0: // hold
					d := float64(op%7) + 0.5
					p.Hold(d)
					emit("held %.1f", who, d)
				case 1: // park on the shared event
					err := ev.Wait(p)
					emit("event wait -> %v", who, err)
				case 2: // trigger + reset the shared event
					ev.Trigger(nil)
					ev.Reset()
					emit("trigger", who)
				case 3: // queue traffic: even actors put, odd actors get
					if a%2 == 0 {
						q.Put(int(op))
						emit("put %d", who, op)
					} else {
						v, err := q.Get(p)
						emit("get %d -> %v", who, v, err)
					}
				case 4: // interrupt the next actor if it is parked
					target := procs[(a+1)%actors]
					ok := target.Interrupt(fmt.Errorf("poke from %s", who))
					emit("interrupt a%d -> %v", who, (a+1)%actors, ok)
				case 5: // visit the shared station; some services are empty
					d := float64(op%4) * 1.25
					err := use(r, p, d)
					emit("use %v -> %v", who, d, err)
				}
			}
			emit("done", who)
		})
	}

	bound := 1.0
	if len(script) > 0 {
		bound = float64(script[0]%32) + 1
	}
	stop := e.Run(bound)
	if stop > bound {
		panic(fmt.Sprintf("Run(%v) reported stop time %v past the bound", bound, stop))
	}
	if e.Now() != bound {
		panic(fmt.Sprintf("Run(%v) left the clock at %v", bound, e.Now()))
	}
	emit("run stopped at %v live=%d", "main", stop, e.Live())
	emit("station completions=%d busy=%v population=%v wait=%v in-use=%d", "main",
		r.Completions(), r.BusyTime(bound), r.MeanPopulation(bound), r.MeanWait(), r.InUse())
	e.Shutdown()
	if e.Live() != 0 {
		panic(fmt.Sprintf("Live = %d after Shutdown", e.Live()))
	}
	if !e.Terminated() {
		panic("Terminated() false after Shutdown")
	}
	out := ""
	for _, line := range trace {
		out += line + "\n"
	}
	return out, e.Resumes()
}

// FuzzKernelInterleave drives random interleavings of Hold, event waits,
// queue traffic, station visits, Interrupt and Shutdown through the kernel. Two properties
// must hold for every input: the kernel survives (no internal panic, clean
// teardown — checked inside interleaveTrace), and the run is deterministic
// (the same script yields a byte-identical trace).
func FuzzKernelInterleave(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{4, 4, 4, 4, 1, 1, 1, 1})
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 128, 64, 32})
	f.Add([]byte{3, 3, 3, 3, 2, 1, 0, 4, 3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		first := interleaveTrace(script)
		second := interleaveTrace(script)
		if first != second {
			t.Fatalf("nondeterministic trace:\n--- first\n%s--- second\n%s", first, second)
		}
	})
}

// TestKernelInterleaveSeeds runs the fuzz seed scripts as a plain unit
// test, so the interleaving property is exercised on every `go test` run
// even without -fuzz.
func TestKernelInterleaveSeeds(t *testing.T) {
	seeds := [][]byte{
		{},
		{0, 1, 2, 3, 4},
		{4, 4, 4, 4, 1, 1, 1, 1},
		{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 128, 64, 32},
		{3, 3, 3, 3, 2, 1, 0, 4, 3, 2, 1, 0},
		{20, 11, 7, 3, 14, 255, 0, 0, 0, 9, 9, 9, 9, 4, 4, 1, 2, 3},
		{5, 11, 17, 23, 4, 5, 11, 17, 10, 4, 29, 35, 5, 4, 5, 5},
	}
	for i, s := range seeds {
		if a, b := interleaveTrace(s), interleaveTrace(s); a != b {
			t.Fatalf("seed %d nondeterministic:\n--- first\n%s--- second\n%s", i, a, b)
		}
	}
}

// TestUseMatchesAcquireHoldRelease is the differential check on Use's
// grant-time service start: every script must produce a byte-identical
// trace — exact clock readings, dispatch order, interrupt outcomes and
// station statistics — whether station visits go through Use or through
// the reference acquireHoldRelease, and Use must never take more
// coroutine resumes than the reference.
func TestUseMatchesAcquireHoldRelease(t *testing.T) {
	rnd := rand.New(rand.NewPCG(12, 1987))
	scripts := [][]byte{
		{5, 5, 5, 5, 5, 5, 5, 5},
		{5, 11, 17, 23, 4, 5, 11, 17, 10, 4, 29, 35, 5, 4, 5, 5},
		{31, 5, 5, 5, 4, 5, 4, 5, 11, 11, 11, 11, 0, 6, 12, 18},
	}
	for i := 0; i < 300; i++ {
		s := make([]byte, 8+rnd.IntN(56))
		for j := range s {
			s[j] = byte(rnd.IntN(256))
		}
		scripts = append(scripts, s)
	}
	fewer, interrupted := 0, 0
	for i, s := range scripts {
		got, gotResumes := interleaveTraceWith(s, (*Resource).Use)
		want, wantResumes := interleaveTraceWith(s, acquireHoldRelease)
		if got != want {
			t.Fatalf("script %d %v: Use diverges from Acquire+Hold+Release:\n--- Use\n%s--- reference\n%s", i, s, got, want)
		}
		if gotResumes > wantResumes {
			t.Fatalf("script %d: Use took %d resumes, reference %d", i, gotResumes, wantResumes)
		}
		if gotResumes < wantResumes {
			fewer++
		}
		for _, line := range strings.Split(got, "\n") {
			if strings.Contains(line, " use ") && strings.Contains(line, "interrupted") {
				interrupted++
			}
		}
	}
	if fewer == 0 {
		t.Fatal("no script queued a Use: the grant-time service start went unexercised")
	}
	if interrupted == 0 {
		t.Fatal("no script interrupted a queued Use")
	}
	t.Logf("%d scripts, %d took fewer resumes with Use, %d queued Uses interrupted", len(scripts), fewer, interrupted)
}
