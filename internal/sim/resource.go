package sim

import (
	"fmt"

	"carat/internal/stats"
)

// Resource is a multi-server service station with a FCFS queue. It models
// queueing centers such as a CPU or a disk: a process Uses a server for its
// service time, or Acquires servers, Holds and Releases them itself.
//
// A Resource collects the statistics a queueing study needs: utilization,
// mean queue length (waiting + in service), completion count, and the mean
// wait and residence times.
type Resource struct {
	env     *Env
	name    string
	servers int
	inUse   int

	// waiters[wHead:] is the FCFS wait queue. Dequeue advances wHead and
	// the backing array is reused once the queue empties, so steady-state
	// queueing does not grow the slice.
	waiters []*resWaiter
	wHead   int
	pool    []*resWaiter // free waiter records; steady state allocates none

	busy        stats.TimeWeighted // number of busy servers over time
	population  stats.TimeWeighted // waiting + in service
	completions stats.Counter
	waitSum     float64 // total queue wait of granted customers
	waitN       int64   // customers granted
	residSum    float64 // total wait+service of completed Uses
	residN      int64   // Uses completed
}

// resWaiter is a queued customer. A Use waiter (serve) carries its service
// time d: the grant starts the service without resuming the process.
type resWaiter struct {
	r       *Resource
	p       *Proc
	n       int
	d       float64
	serve   bool
	arrived float64
	removed bool
}

// detach implements the interrupt hook: the waiter stays in the FCFS slice
// as a tombstone (reclaimed when dispatch reaches it) and the customer
// leaves the station's population immediately.
func (w *resWaiter) detach() {
	w.removed = true
	w.r.population.Adjust(-1, w.r.env.now)
}

// newWaiter takes a waiter record from the station's pool.
func (r *Resource) newWaiter(p *Proc, n int) *resWaiter {
	var w *resWaiter
	if k := len(r.pool); k > 0 {
		w = r.pool[k-1]
		r.pool[k-1] = nil
		r.pool = r.pool[:k-1]
	} else {
		w = &resWaiter{}
	}
	*w = resWaiter{r: r, p: p, n: n, arrived: r.env.now}
	return w
}

func (r *Resource) freeWaiter(w *resWaiter) {
	*w = resWaiter{}
	r.pool = append(r.pool, w)
}

// popWaiter removes the queue head, resetting the backing array for reuse
// when the queue empties.
func (r *Resource) popWaiter() *resWaiter {
	w := r.waiters[r.wHead]
	r.waiters[r.wHead] = nil
	r.wHead++
	if r.wHead == len(r.waiters) {
		r.waiters = r.waiters[:0]
		r.wHead = 0
	}
	return w
}

// NewResource creates a station with the given number of servers (>= 1).
func NewResource(env *Env, name string, servers int) *Resource {
	if servers < 1 {
		panic("sim: resource needs at least one server")
	}
	r := &Resource{env: env, name: name, servers: servers}
	r.busy.Set(0, env.now)
	r.population.Set(0, env.now)
	return r
}

// Name returns the station name.
func (r *Resource) Name() string { return r.name }

// Servers returns the number of servers.
func (r *Resource) Servers() int { return r.servers }

// InUse returns the number of servers currently held.
func (r *Resource) InUse() int { return r.inUse }

// Acquire obtains one server, waiting FCFS if none is free. The wait is
// interruptible; on interrupt the process leaves the queue and the error is
// returned.
func (r *Resource) Acquire(p *Proc) error { return r.AcquireN(p, 1) }

// AcquireN obtains n servers at once (all-or-nothing), waiting FCFS.
func (r *Resource) AcquireN(p *Proc, n int) error {
	if n < 1 || n > r.servers {
		panic(fmt.Sprintf("sim: AcquireN(%d) on %q with %d servers", n, r.name, r.servers))
	}
	if r.admit(n) {
		return nil
	}
	return r.wait(p, n, 0, false)
}

// admit counts an arriving customer into the station and grants it n
// servers at once if no one is queued and they are free.
func (r *Resource) admit(n int) bool {
	r.population.Adjust(1, r.env.now)
	if r.wHead == len(r.waiters) && r.inUse+n <= r.servers {
		r.grant(n)
		r.waitN++
		return true
	}
	return false
}

// wait queues p FCFS for n servers and parks it. An Acquire waiter is
// resumed at its grant; a Use waiter (serve) is resumed only once its
// service of d, started at the grant, is over. The wait is interruptible
// until the grant.
func (r *Resource) wait(p *Proc, n int, d float64, serve bool) error {
	w := r.newWaiter(p, n)
	w.d, w.serve = d, serve
	r.waiters = append(r.waiters, w)
	p.waiter = w
	if err := p.park(); err != nil {
		r.dispatch() // our slot may now be grantable to someone behind us
		return err
	}
	return nil
}

// grant marks n servers busy.
func (r *Resource) grant(n int) {
	r.inUse += n
	r.busy.Set(float64(r.inUse), r.env.now)
}

// Release returns one server and hands it to the head of the queue.
func (r *Resource) Release() { r.ReleaseN(1) }

// ReleaseN returns the n servers obtained by a single AcquireN. One call
// counts as one customer completion regardless of n, so a customer must
// release everything it acquired in one call.
func (r *Resource) ReleaseN(n int) {
	if n < 1 || n > r.inUse {
		panic(fmt.Sprintf("sim: ReleaseN(%d) on %q with %d in use", n, r.name, r.inUse))
	}
	now := r.env.now
	r.inUse -= n
	r.busy.Set(float64(r.inUse), now)
	r.population.Adjust(-1, now)
	r.completions.Inc()
	r.dispatch()
}

// dispatch grants servers to queued waiters in FCFS order while capacity
// allows, skipping waiters removed by interrupts. An Acquire waiter is
// woken; a Use waiter gets a serve event at the current time instead, which
// consumes the same sequence number the wakeup would have.
func (r *Resource) dispatch() {
	e := r.env
	for r.wHead < len(r.waiters) {
		w := r.waiters[r.wHead]
		if w.removed {
			r.popWaiter()
			r.freeWaiter(w)
			continue
		}
		if r.inUse+w.n > r.servers {
			return
		}
		r.popWaiter()
		r.grant(w.n)
		r.waitSum += e.now - w.arrived
		r.waitN++
		w.p.waiter = nil
		if w.serve {
			ev := e.schedule(e.now)
			ev.kind, ev.rw = evServe, w
			continue
		}
		e.wake(w.p, nil)
		r.freeWaiter(w)
	}
}

// startService runs a queued Use's serve event: inside the kernel, it does
// what the woken process would have done before yielding again — start its
// hold. Only a fused (or zero) hold resumes the process now, already at the
// end of its service; otherwise the process stays parked until the hold's
// resume event. A resumed process runs until it yields with no event in
// between, so the dispatch order is the same as waking it at the grant.
func (r *Resource) startService(w *resWaiter) {
	p, d := w.p, w.d
	r.freeWaiter(w)
	if r.env.hold(p, d) {
		r.env.resume(p, nil)
	}
}

// Use acquires a server, holds it for service time d, and releases it.
// The queue wait is interruptible; once service starts it runs to
// completion. On interrupt, no service is performed.
//
// A queued Use costs one coroutine round-trip, not two: its service starts
// at the grant (see startService), so the process is resumed only when the
// service is over.
func (r *Resource) Use(p *Proc, d float64) error {
	if d < 0 {
		panic("sim: negative hold")
	}
	start := r.env.now
	if r.admit(1) {
		p.Hold(d)
	} else if err := r.wait(p, 1, d, true); err != nil {
		return err
	}
	r.residSum += r.env.now - start
	r.residN++
	r.ReleaseN(1)
	return nil
}

// Utilization returns the time-average fraction of servers busy over the
// observation window, at time t.
func (r *Resource) Utilization(t float64) float64 {
	return r.busy.Mean(t) / float64(r.servers)
}

// BusyTime returns total accumulated server-busy time up to t.
func (r *Resource) BusyTime(t float64) float64 { return r.busy.Integral(t) }

// MeanPopulation returns the time-average number of processes at the
// station (waiting or in service) at time t.
func (r *Resource) MeanPopulation(t float64) float64 { return r.population.Mean(t) }

// Completions returns the number of service completions (servers released).
func (r *Resource) Completions() int64 { return r.completions.N() }

// Throughput returns completions per unit time over the observation window.
func (r *Resource) Throughput(t float64) float64 { return r.completions.Rate(t) }

// MeanWait returns the average time spent queued before service, or 0
// before the first grant.
func (r *Resource) MeanWait() float64 { return mean(r.waitSum, r.waitN) }

// MeanResidence returns the average wait+service time observed by Use, or
// 0 before the first completed Use.
func (r *Resource) MeanResidence() float64 { return mean(r.residSum, r.residN) }

func mean(sum float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ResetStats truncates the statistics window at time t (e.g. after warm-up)
// without disturbing the station state.
func (r *Resource) ResetStats(t float64) {
	r.busy.ResetAt(t)
	r.busy.Set(float64(r.inUse), t)
	r.population.ResetAt(t)
	r.completions.ResetAt(t)
	r.waitSum, r.waitN = 0, 0
	r.residSum, r.residN = 0, 0
}
