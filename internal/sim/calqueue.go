package sim

import (
	"math"
	"slices"
)

// Event kinds. A kernel event either resumes a process continuation or runs
// a bare callback; start events create the process coroutine first, and
// serve events start the service of a queued Resource.Use at its grant.
const (
	evCall uint8 = iota
	evStart
	evResume
	evServe
)

// event is one scheduled kernel action. Events are pooled: the scheduler
// owns a free-list and steady-state scheduling performs no allocation.
// Events at equal times fire in schedule (seq) order.
type event struct {
	t        float64
	seq      int64
	kind     uint8
	canceled bool
	proc     *Proc      // evStart, evResume
	err      error      // evResume
	fn       func()     // evCall
	rw       *resWaiter // evServe
}

// eventBefore is the total dispatch order: time, then schedule order.
func eventBefore(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// calQueue is an indexed calendar queue (Brown, CACM 1988) with a direct
// sorted lane for small populations.
//
// Bucketed mode is the classical calendar: a ring of time-width buckets,
// each holding its pending events sorted by (t, seq); dequeue scans forward
// from the last popped time, one bucket-width "day" at a time, wrapping
// years. Both operations are O(1) amortized for the large, smoothly
// distributed populations an open-arrival run can build up, against
// O(log n) for the binary heap this queue replaced.
//
// Most of the time, though, the pending population is tiny: same-time
// wakeups ride the environment's now-queue and holds mostly fuse, leaving
// only the in-flight service-time expiries here — a handful of events. For
// that regime the queue keeps a single sorted slice ("linear mode"): push
// is a short back-scan insert, peek reads the head, pop advances a head
// index. The queue switches to buckets above calLinearMax events and drops
// back below calLinearReenter (hysteresis, so a hovering population does
// not thrash between modes).
//
// Both modes preserve the exact (t, seq) total order of the heap they
// replaced — same-time events cannot straddle buckets and every bucket is
// kept sorted — so the dequeue sequence is byte-identical.
type calQueue struct {
	// Linear mode: lin[linHead:] holds the pending events sorted by
	// (t, seq). The backing array is reused once the queue drains.
	lin      []*event
	linHead  int
	bucketed bool

	buckets  [][]*event // nil until the population first outgrows linear mode
	mask     int        // len(buckets)-1; len is a power of two
	width    float64    // bucket time width
	invWidth float64    // 1/width, cached for bucket indexing
	lastT    float64    // dequeue position; never exceeds the minimum pending t
	n        int        // live (non-canceled) events
	phys     int        // physical entries, including canceled ones
	free     []*event

	// One-entry peek cache for bucketed mode: the minimum event and its
	// bucket, invalidated by pop and by any push that precedes it.
	cached       *event
	cachedBucket int
}

const (
	calMinBuckets    = 16
	calLinearMax     = 64 // linear -> bucketed above this population
	calLinearReenter = 16 // bucketed -> linear below this population
)

func (q *calQueue) init() {
	q.width = 1
	q.invWidth = 1
}

// alloc returns a zeroed event from the pool.
func (q *calQueue) alloc() *event {
	if n := len(q.free); n > 0 {
		ev := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		return ev
	}
	return &event{}
}

// release returns a dispatched event to the pool, dropping its payload
// references so the pool never pins model objects.
func (q *calQueue) release(ev *event) {
	*ev = event{}
	q.free = append(q.free, ev)
}

func (q *calQueue) empty() bool { return q.n == 0 }

func (q *calQueue) bucketOf(t float64) int {
	return int(t*q.invWidth) & q.mask
}

// push enqueues ev, keeping (t, seq) order. Insertions scan from the back:
// most arrivals land at or near the end, because seq grows monotonically
// and service times cluster.
func (q *calQueue) push(ev *event) {
	q.n++
	q.phys++
	if !q.bucketed {
		b := q.lin
		j := len(b)
		for j > q.linHead && eventBefore(ev, b[j-1]) {
			j--
		}
		b = append(b, nil)
		copy(b[j+1:], b[j:])
		b[j] = ev
		q.lin = b
		if q.n > calLinearMax {
			q.toBucketed()
		}
		return
	}
	i := q.bucketOf(ev.t)
	q.bucketInsert(i, ev)
	if q.cached != nil && eventBefore(ev, q.cached) {
		q.cached, q.cachedBucket = ev, i
	}
	if q.n > 2*len(q.buckets) {
		q.rebuild(2 * len(q.buckets))
	}
}

// bucketInsert places ev into bucket i, keeping the bucket sorted.
func (q *calQueue) bucketInsert(i int, ev *event) {
	b := q.buckets[i]
	j := len(b)
	for j > 0 && eventBefore(ev, b[j-1]) {
		j--
	}
	b = append(b, nil)
	copy(b[j+1:], b[j:])
	b[j] = ev
	q.buckets[i] = b
}

// unschedule cancels a pending event in O(1); the slot is reclaimed when
// the dequeue scan reaches it.
func (q *calQueue) unschedule(ev *event) {
	if ev.canceled {
		return
	}
	ev.canceled = true
	q.n--
	if q.cached == ev {
		q.cached = nil
	}
}

// peek returns the minimum pending live event without removing it, or nil.
// Canceled events encountered on the way are reclaimed.
func (q *calQueue) peek() *event {
	if !q.bucketed {
		for q.linHead < len(q.lin) {
			ev := q.lin[q.linHead]
			if !ev.canceled {
				return ev
			}
			q.lin[q.linHead] = nil
			q.linHead++
			q.phys--
			q.release(ev)
		}
		q.lin = q.lin[:0]
		q.linHead = 0
		return nil
	}
	for {
		ev := q.scan()
		if ev == nil || !ev.canceled {
			return ev
		}
		q.removeHead(q.cachedBucket)
		q.release(ev)
	}
}

// pop removes and returns the minimum pending live event, or nil. The
// caller owns the event and must release it after dispatch.
func (q *calQueue) pop() *event {
	ev := q.peek()
	if ev == nil {
		return nil
	}
	q.n--
	q.phys--
	q.lastT = ev.t
	if !q.bucketed {
		q.lin[q.linHead] = nil
		q.linHead++
		if q.linHead == len(q.lin) {
			q.lin = q.lin[:0]
			q.linHead = 0
		}
		return ev
	}
	b := q.buckets[q.cachedBucket]
	copy(b, b[1:])
	b[len(b)-1] = nil
	q.buckets[q.cachedBucket] = b[:len(b)-1]
	q.cached = nil
	if q.n < calLinearReenter {
		q.toLinear()
	} else if q.n < len(q.buckets)/4 && len(q.buckets) > calMinBuckets {
		q.rebuild(len(q.buckets) / 2)
	}
	return ev
}

// removeHead removes the head of bucket i, shifting in place so bucket
// backing arrays stay warm for reuse. Bucketed mode only.
func (q *calQueue) removeHead(i int) {
	b := q.buckets[i]
	copy(b, b[1:])
	b[len(b)-1] = nil
	q.buckets[i] = b[:len(b)-1]
	q.phys--
	q.cached = nil
}

// scan locates the minimum pending event (live or canceled) and caches it.
// It walks at most one full year of buckets from the last popped time; if
// every pending event lies beyond that year (a sparse far-future queue), it
// falls back to a direct minimum search over the bucket heads.
func (q *calQueue) scan() *event {
	if q.cached != nil {
		return q.cached
	}
	if q.phys == 0 {
		return nil
	}
	nb := len(q.buckets)
	i := q.bucketOf(q.lastT)
	yearTop := (math.Floor(q.lastT*q.invWidth) + 1) * q.width
	for k := 0; k < nb; k++ {
		if b := q.buckets[i]; len(b) > 0 && b[0].t < yearTop {
			q.cached, q.cachedBucket = b[0], i
			return b[0]
		}
		i = (i + 1) & q.mask
		yearTop += q.width
	}
	var best *event
	bi := -1
	for j, b := range q.buckets {
		if len(b) > 0 && (best == nil || eventBefore(b[0], best)) {
			best, bi = b[0], j
		}
	}
	q.cached, q.cachedBucket = best, bi
	return best
}

// collectLive gathers every pending live event (releasing canceled ones)
// from whichever mode is active and clears that mode's storage, keeping
// backing arrays for reuse. Callers must restore n and phys.
func (q *calQueue) collectLive() []*event {
	live := make([]*event, 0, q.n)
	if !q.bucketed {
		for _, ev := range q.lin[q.linHead:] {
			if ev.canceled {
				q.release(ev)
				continue
			}
			live = append(live, ev)
		}
		clear(q.lin)
		q.lin = q.lin[:0]
		q.linHead = 0
		return live
	}
	for i, b := range q.buckets {
		for _, ev := range b {
			if ev.canceled {
				q.release(ev)
				continue
			}
			live = append(live, ev)
		}
		clear(b)
		q.buckets[i] = b[:0]
	}
	return live
}

// toBucketed switches from linear to calendar mode, sizing the ring for
// the current population. The linear lane is already sorted, so the
// collected slice needs no re-sort.
func (q *calQueue) toBucketed() {
	live := q.collectLive()
	q.bucketed = true
	nb := calMinBuckets
	for nb < len(live) {
		nb *= 2
	}
	q.placeBucketed(live, nb)
}

// toLinear switches from calendar to linear mode, merging the surviving
// bucket contents back into one sorted lane.
func (q *calQueue) toLinear() {
	live := q.collectLive()
	slices.SortFunc(live, func(a, b *event) int {
		if eventBefore(a, b) {
			return -1
		}
		return 1
	})
	q.bucketed = false
	q.cached = nil
	q.lin = append(q.lin[:0], live...)
	q.linHead = 0
	q.n = len(live)
	q.phys = len(live)
}

// rebuild resizes the ring to nb buckets, dropping canceled entries along
// the way. Bucketed mode only.
func (q *calQueue) rebuild(nb int) {
	q.placeBucketed(q.collectLive(), nb)
}

// placeBucketed retunes the bucket width to the live events' mean spacing
// and distributes them over a ring of nb buckets.
func (q *calQueue) placeBucketed(live []*event, nb int) {
	minT, maxT := math.Inf(1), math.Inf(-1)
	for _, ev := range live {
		if ev.t < minT {
			minT = ev.t
		}
		if ev.t > maxT {
			maxT = ev.t
		}
	}
	if q.buckets == nil || nb != len(q.buckets) {
		q.buckets = make([][]*event, nb)
		q.mask = nb - 1
	}
	if len(live) > 1 && maxT > minT {
		w := (maxT - minT) / float64(len(live))
		// Keep bucket indices well inside int range even for far-future
		// events: t/width stays below ~1e15.
		if min := maxT * 1e-15; w < min {
			w = min
		}
		q.width = w
		q.invWidth = 1 / w
	}
	q.cached = nil
	for _, ev := range live {
		q.bucketInsert(q.bucketOf(ev.t), ev)
	}
	q.n = len(live)
	q.phys = len(live)
}

// reset discards all pending events and the pool; used by Shutdown, after
// which the environment is dead.
func (q *calQueue) reset() {
	q.lin = nil
	q.linHead = 0
	q.bucketed = false
	q.buckets = nil
	q.free = nil
	q.cached = nil
	q.n = 0
	q.phys = 0
}
