package sim

import (
	"testing"
)

func TestShutdownKillsParkedProcesses(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e, "q")
	r := NewResource(e, "cpu", 1)
	reached := false
	e.Spawn("queued", func(p *Proc) {
		_, _ = q.Get(p) // parks forever: nothing ever Puts
		reached = true
	})
	e.Spawn("holder", func(p *Proc) {
		_ = r.Use(p, 1e9) // still holding the server at the bound
		reached = true
	})
	e.Spawn("waiter", func(p *Proc) {
		_ = r.Acquire(p) // parks behind holder
		reached = true
	})
	e.Run(10)
	if e.Live() != 3 {
		t.Fatalf("Live before Shutdown = %d, want 3", e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("Live after Shutdown = %d, want 0", e.Live())
	}
	if reached {
		t.Fatal("a killed process ran code past its blocking point")
	}
	if !e.Terminated() {
		t.Fatal("Terminated() must report true after Shutdown")
	}
}

func TestShutdownUnstartedProcess(t *testing.T) {
	e := NewEnv()
	ran := false
	e.SpawnAt(1e6, "late", func(p *Proc) { ran = true })
	e.Run(10)
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("Live = %d, want 0", e.Live())
	}
	if ran {
		t.Fatal("unstarted process must never run")
	}
}

func TestShutdownRunsDefers(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e, "q")
	cleaned := false
	e.Spawn("p", func(p *Proc) {
		defer func() { cleaned = true }()
		_, _ = q.Get(p)
	})
	e.Run(10)
	e.Shutdown()
	if !cleaned {
		t.Fatal("Shutdown must unwind the process stack, running defers")
	}
}

// TestShutdownRekillsReparkedProcess covers a process whose defer blocks
// again (here: on another queue) while being killed — Shutdown must keep
// killing until the environment is empty.
func TestShutdownRekillsReparkedProcess(t *testing.T) {
	e := NewEnv()
	q1 := NewQueue[int](e, "q1")
	q2 := NewQueue[int](e, "q2")
	e.Spawn("stubborn", func(p *Proc) {
		defer func() {
			recover()        // swallow the first kill...
			_, _ = q2.Get(p) // ...and park again
		}()
		_, _ = q1.Get(p)
	})
	e.Run(10)
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("Live = %d, want 0", e.Live())
	}
}

func TestShutdownIdempotentAndEmptyEnv(t *testing.T) {
	e := NewEnv()
	e.Spawn("p", func(p *Proc) { p.Hold(1) })
	e.RunAll() // drains naturally
	e.Shutdown()
	e.Shutdown() // second call must be a no-op
	if e.Live() != 0 {
		t.Fatalf("Live = %d, want 0", e.Live())
	}

	// An environment that never ran anything.
	e2 := NewEnv()
	e2.Shutdown()
	if !e2.Terminated() {
		t.Fatal("empty env must still mark Terminated")
	}
}

// TestShutdownLargeParkedPopulation is the regression test for the old
// quadratic Shutdown: each kill round rescanned the whole process table for
// the minimum live id, so tearing down n parked processes cost O(n²) map
// scans. The rewrite sorts the ids once per round; this population size
// finishes instantly now and took seconds before.
func TestShutdownLargeParkedPopulation(t *testing.T) {
	const parked = 20_000
	e := NewEnv()
	q := NewQueue[int](e, "q")
	r := NewResource(e, "cpu", 1)
	unwound := 0
	for i := 0; i < parked; i++ {
		blockOnQueue := i%2 == 0
		e.Spawn("p", func(p *Proc) {
			defer func() { unwound++ }()
			if blockOnQueue {
				_, _ = q.Get(p)
			} else {
				_ = r.Acquire(p)
				p.Hold(1e9)
			}
		})
	}
	e.Run(10)
	if e.Live() != parked {
		t.Fatalf("Live before Shutdown = %d, want %d", e.Live(), parked)
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("Live after Shutdown = %d, want 0", e.Live())
	}
	if unwound != parked {
		t.Fatalf("unwound %d processes, want %d", unwound, parked)
	}
}

func TestShutdownDeterministicKillOrder(t *testing.T) {
	run := func() []string {
		e := NewEnv()
		q := NewQueue[int](e, "q")
		var order []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Spawn(name, func(p *Proc) {
				defer func() { order = append(order, name) }()
				_, _ = q.Get(p)
			})
		}
		e.Run(10)
		e.Shutdown()
		return order
	}
	a, b := run(), run()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("kill orders %v / %v, want 3 entries each", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("kill order differs between runs: %v vs %v", a, b)
		}
	}
}

// TestShutdownPendingServe tears the environment down while a queued Use
// has been granted its server but its serve event has not fired yet: the
// grant came from outside Run, so the event is still pending. The process
// must be unwound without ever starting its service.
func TestShutdownPendingServe(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, "cpu", 1)
	served := false
	e.Spawn("owner", func(p *Proc) { _ = r.Acquire(p) }) // keeps the server
	e.Spawn("user", func(p *Proc) {
		_ = r.Use(p, 5)
		served = true
	})
	e.Run(10)
	r.Release() // grants the queued Use; its serve event is now pending
	if r.InUse() != 1 || e.peekNext() == nil {
		t.Fatalf("in use = %d, pending event = %v; want the Use granted with its serve event queued", r.InUse(), e.peekNext())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("Live after Shutdown = %d, want 0", e.Live())
	}
	if served {
		t.Fatal("the killed Use returned")
	}
}
