package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"

	"carat/internal/testbed"
)

// span is one interval of a transaction attempt, in simulated ms (end is
// -1 while open). Spans of one attempt share its gid; the child spans
// (lock wait, rollback, force-commit, arrival) lie inside the attempt
// span, except an arrival's, which ends where its attempt begins.
type span struct {
	kind  spanKind
	node  int32
	gid   int64
	start float64
	end   float64
}

type spanKind uint8

const (
	spanAttempt spanKind = iota
	spanLockWait
	spanRollback
	spanForceCommit
	spanArrival
)

var spanNames = [...]string{"attempt", "lock-wait", "rollback", "force-commit", "arrival"}

// access is one entry of a site's concurrency-control call stream: a
// granule access request (release=false) or the end of the attempt's
// state at the site (release=true).
type access struct {
	gid     int64
	site    int32
	granule int32
	write   bool
	release bool
}

// siteGid keys per-site transaction state.
type siteGid struct {
	site int32
	gid  int64
}

// recorder is the traced run's Config.Trace hook. It keeps spans in
// memory keyed by transaction gid, counts every event kind, rebuilds each
// site's access stream for the replays, and forwards every event
// to the run's auditor.
type recorder struct {
	audit *testbed.Auditor

	counts  map[testbed.TraceKind]int64
	spans   []span
	stream  []access
	commits []float64 // commit times, for the progress check

	attempt   map[int64]int                // gid -> index of its open attempt span
	arrivals  map[testbed.NodeID][]float64 // pending open arrivals per site
	retries   map[testbed.NodeID]int       // aborted submissions awaiting resubmission
	lockWait  map[siteGid]int              // open lock-wait span
	rollback  map[siteGid]int              // open rollback span
	force     map[int64]int                // open force-commit-record span
	committed map[int64]bool
}

func newRecorder() *recorder {
	return &recorder{
		audit:     testbed.NewAuditor(),
		counts:    make(map[testbed.TraceKind]int64),
		attempt:   make(map[int64]int),
		arrivals:  make(map[testbed.NodeID][]float64),
		retries:   make(map[testbed.NodeID]int),
		lockWait:  make(map[siteGid]int),
		rollback:  make(map[siteGid]int),
		force:     make(map[int64]int),
		committed: make(map[int64]bool),
	}
}

// open starts a span of ev's transaction at ev's time.
func (r *recorder) open(kind spanKind, ev testbed.TraceEvent) int {
	r.spans = append(r.spans, span{kind: kind, gid: ev.Txn, node: int32(ev.Node), start: ev.T, end: -1})
	return len(r.spans) - 1
}

func (r *recorder) closeSpan(i int, t float64) { r.spans[i].end = t }

// Record is installed as Config.Trace.
func (r *recorder) Record(ev testbed.TraceEvent) {
	r.audit.Record(ev)
	r.counts[ev.Ev]++
	key := siteGid{int32(ev.Node), ev.Txn}
	switch ev.Ev {
	case testbed.EvArrival:
		r.arrivals[ev.Node] = append(r.arrivals[ev.Node], ev.T)
	case testbed.EvBegin:
		r.attempt[ev.Txn] = r.open(spanAttempt, ev)
		r.admitted(ev)
	case testbed.EvLockWait:
		r.lockWait[key] = r.open(spanLockWait, ev)
		r.stream = append(r.stream, access{gid: ev.Txn, site: int32(ev.Node), granule: int32(ev.Granule), write: ev.Kind.Update()})
	case testbed.EvLockGrant, testbed.EvDeadlock, testbed.EvTimeoutAbort:
		if i, ok := r.lockWait[key]; ok {
			// The resolution of a queued request, not a new one.
			r.closeSpan(i, ev.T)
			delete(r.lockWait, key)
		} else if ev.Granule >= 0 {
			r.stream = append(r.stream, access{gid: ev.Txn, site: int32(ev.Node), granule: int32(ev.Granule), write: ev.Kind.Update()})
		}
	case testbed.EvRollback:
		r.rollback[key] = r.open(spanRollback, ev)
	case testbed.EvRelease:
		r.stream = append(r.stream, access{gid: ev.Txn, site: int32(ev.Node), release: true})
	case testbed.EvForceCommit:
		r.force[ev.Txn] = r.open(spanForceCommit, ev)
	case testbed.EvCommitted:
		r.committed[ev.Txn] = true
		r.commits = append(r.commits, ev.T)
		if i, ok := r.force[ev.Txn]; ok {
			r.closeSpan(i, ev.T)
			delete(r.force, ev.Txn)
		}
		r.endAttempt(ev)
	case testbed.EvAborted:
		for k, i := range r.rollback {
			if k.gid == ev.Txn {
				r.closeSpan(i, ev.T)
				delete(r.rollback, k)
			}
		}
		r.retries[ev.Node]++ // the aborted node is the home site
		r.endAttempt(ev)
	}
}

// admitted opens the arrival-to-begin span of an open transaction's first
// submission. An arrival carries no gid (one is drawn per submission), so
// arrivals pair with first submissions in order at each site: a begin at
// the very time of the oldest pending arrival is that arrival admitted at
// once; any other begin while an aborted submission is pending is taken
// to be its resubmission. The pairing is exact when admission is
// immediate and in order, and an estimate when shed arrivals and
// resubmissions overlap.
func (r *recorder) admitted(ev testbed.TraceEvent) {
	q := r.arrivals[ev.Node]
	if len(q) == 0 {
		return
	}
	if q[0] != ev.T && r.retries[ev.Node] > 0 {
		r.retries[ev.Node]--
		return
	}
	r.spans = append(r.spans, span{kind: spanArrival, gid: ev.Txn, node: int32(ev.Node), start: q[0], end: ev.T})
	r.arrivals[ev.Node] = q[1:]
}

func (r *recorder) endAttempt(ev testbed.TraceEvent) {
	if i, ok := r.attempt[ev.Txn]; ok {
		r.closeSpan(i, ev.T)
		delete(r.attempt, ev.Txn)
	}
}

// durations returns the lengths of the closed spans of a kind.
func (r *recorder) durations(kind spanKind) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.kind == kind && s.end >= 0 {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// requests returns how many access requests the stream holds.
func (r *recorder) requests() int64 {
	var n int64
	for _, a := range r.stream {
		if !a.release {
			n++
		}
	}
	return n
}

// events returns the total number of protocol events seen.
func (r *recorder) events() int64 {
	var n int64
	for _, c := range r.counts {
		n += c
	}
	return n
}

// traceEvent is one Chrome trace-event record: a complete ("X") event
// per closed span, plus a process-name ("M") record per run.
type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int64   `json:"tid"`
	Args any     `json:"args,omitempty"`
}

type nameArgs struct {
	Name string `json:"name"`
}

type nodeArgs struct {
	Node int `json:"node"`
}

// writeChromeTrace streams every run's spans to path as Chrome
// trace-event JSON (it opens in Perfetto): one process per run, one
// thread per transaction gid, simulated ms shown as trace µs. The
// event-kind counts go under otherData, keyed run/kind.
func writeChromeTrace(path string, labels []string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	sep := ""
	emit := func(ev traceEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "%s\n%s", sep, b)
		sep = ","
		return err
	}
	counts := make(map[string]int64)
	err = func() error {
		if _, err := w.WriteString(`{"traceEvents":[`); err != nil {
			return err
		}
		for pid, rec := range recs {
			if err := emit(traceEvent{Name: "process_name", Ph: "M", Pid: pid, Args: nameArgs{labels[pid]}}); err != nil {
				return err
			}
			for _, s := range rec.spans {
				if s.end < 0 {
					continue
				}
				ev := traceEvent{Name: spanNames[s.kind], Ph: "X", Ts: s.start * 1000, Dur: (s.end - s.start) * 1000, Pid: pid, Tid: s.gid, Args: nodeArgs{int(s.node)}}
				if err := emit(ev); err != nil {
					return err
				}
			}
			for k, n := range rec.counts {
				counts[fmt.Sprintf("%s/%v", labels[pid], k)] = n
			}
		}
		b, err := json.Marshal(counts)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "\n],\"otherData\":%s}\n", b)
		return err
	}()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
