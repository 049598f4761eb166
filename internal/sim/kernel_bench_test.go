package sim

import "testing"

// Kernel micro-benchmarks: the primitive operations the testbed's hot path
// is built from. Run with `go test ./internal/sim -bench Kernel -benchmem`.

// BenchmarkKernelSchedule measures raw event scheduling and dispatch
// through the calendar queue: timestamps spread over a wide range so the
// events cannot ride the same-time now-queue.
func BenchmarkKernelSchedule(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	n := 0
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+float64(i%97)+1, func() { n++ })
	}
	e.RunAll()
	if n != b.N {
		b.Fatalf("dispatched %d events, want %d", n, b.N)
	}
}

// BenchmarkKernelCancel measures schedule-then-cancel churn: every event is
// unscheduled before the dequeue scan reaches it, exercising the lazy
// cancellation path.
func BenchmarkKernelCancel(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	for i := 0; i < b.N; i++ {
		ev := e.schedule(e.now + float64(i%97) + 1)
		ev.kind = evCall
		ev.fn = func() {}
		e.q.unschedule(ev)
		if i%64 == 63 {
			e.RunAll() // reclaim the canceled entries
		}
	}
	e.RunAll()
}

// BenchmarkKernelHoldPingPong measures the full suspend/resume cycle: two
// processes alternate holds, so every hold has a pending earlier event and
// fusion never applies — each iteration is one event plus two coroutine
// switches.
func BenchmarkKernelHoldPingPong(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	each := b.N/2 + 1
	for pi := 0; pi < 2; pi++ {
		e.Spawn("p", func(p *Proc) {
			for i := 0; i < each; i++ {
				p.Hold(1)
			}
		})
	}
	e.RunAll()
}

// BenchmarkKernelHoldFused measures the fused fast path: a single process
// holding with nothing else pending advances the clock in place, with no
// event and no coroutine switch.
func BenchmarkKernelHoldFused(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Hold(1)
		}
	})
	e.Run(float64(b.N) + 2)
}

// BenchmarkKernelWake measures the park/wake cycle through an Event: one
// waiter parks, a scheduled callback triggers it, repeat.
func BenchmarkKernelWake(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	ev := NewEvent(e, "ev")
	e.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			e.At(e.Now(), func() { ev.Trigger(nil) })
			_ = ev.Wait(p)
			ev.Reset()
		}
	})
	e.RunAll()
}

// BenchmarkKernelUseQueued measures contended station visits: eight
// processes cycle through a two-station closed network (one single-server
// CPU, one single-server disk, unequal service times), so most Uses queue
// and most services cannot fuse — the other station's completion is
// pending. Each iteration is one Use.
func BenchmarkKernelUseQueued(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	cpu := NewResource(e, "cpu", 1)
	dsk := NewResource(e, "disk", 1)
	const procs = 8
	each := b.N/(2*procs) + 1
	for i := 0; i < procs; i++ {
		e.Spawn("p", func(p *Proc) {
			for j := 0; j < each; j++ {
				_ = cpu.Use(p, 2)
				_ = dsk.Use(p, 3)
			}
		})
	}
	e.RunAll()
	b.ReportMetric(float64(e.Resumes())/float64(2*procs*each), "resumes/op")
}

// BenchmarkKernelSpawn measures process creation and teardown: spawn,
// start, immediate return.
func BenchmarkKernelSpawn(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv()
	for i := 0; i < b.N; i++ {
		e.Spawn("p", func(p *Proc) {})
		if i%1024 == 1023 {
			e.RunAll() // bound the pending-start backlog
		}
	}
	e.RunAll()
	if e.Live() != 0 {
		b.Fatalf("Live = %d, want 0", e.Live())
	}
}

// BenchmarkShutdownParked measures tearing down an environment with a large
// parked population — the regression case for the old O(n²) min-id rescan
// in Shutdown.
func BenchmarkShutdownParked(b *testing.B) {
	b.ReportAllocs()
	const parked = 10_000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := NewEnv()
		q := NewQueue[int](e, "q")
		for j := 0; j < parked; j++ {
			e.Spawn("p", func(p *Proc) { _, _ = q.Get(p) })
		}
		e.Run(1)
		b.StartTimer()
		e.Shutdown()
	}
}
