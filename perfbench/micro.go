package main

import (
	"runtime"
	"time"

	"carat/internal/cc"
	"carat/internal/cc/occ"
	"carat/internal/cc/quecc"
	"carat/internal/comm"
	"carat/internal/core"
	"carat/internal/disk"
	"carat/internal/lock"
	"carat/internal/rng"
	"carat/internal/sim"
	"carat/internal/storage"
	"carat/internal/testbed"
	"carat/internal/wal"
	"carat/internal/workload"
)

// timer accumulates the host time of individually timed calls. The cost
// of reading the clock twice is measured once and subtracted.
type timer struct {
	total time.Duration
	n     int64
}

var clockCost = measureClockCost()

func measureClockCost() time.Duration {
	const n = 1 << 16
	var best time.Duration
	for round := 0; round < 5; round++ {
		var sum time.Duration
		for i := 0; i < n; i++ {
			t := time.Now()
			sum += time.Since(t)
		}
		if round == 0 || sum < best {
			best = sum
		}
	}
	return best / n
}

func (t *timer) add(since time.Time) {
	t.total += time.Since(since)
	t.n++
}

// nsPerCall returns the mean host time of one call in ns, net of the
// clock reads.
func (t *timer) nsPerCall() float64 {
	if t.n == 0 {
		return 0
	}
	ns := float64(t.total-time.Duration(t.n)*clockCost) / float64(t.n)
	if ns < 0 {
		return 0
	}
	return ns
}

// replay is the result of feeding traced access streams into fresh
// concurrency-control and journal instances, one instance per site.
type replay struct {
	lockWaits                int64
	lockRequest, lockRelease timer
	cc2pl                    timer
	occAccess, occValidate   timer
	queccAccess              timer
	walBefore, walCommit     timer
	walRollback              timer
}

// replayRun replays one traced run's stream once into the engines of the
// paradigm the run used — a 2PL run's into the lock engines, an OCC run's
// into the validators, a QueCC run's into the schedulers — and every
// run's into the journal.
func (rp *replay) replayRun(r run, rec *recorder) {
	switch r.wl.Concurrency {
	case testbed.CC2PL:
		rp.replayLocking(rec.stream)
	case testbed.CCOCC:
		rp.replayOCC(rec.stream, rec.committed)
	case testbed.CCQueCC:
		rp.replayQueCC(rec.stream)
	}
	rp.replayJournal(rec.stream, rec.committed)
}

// replayLocking feeds a 2PL run's stream into fresh lock managers and,
// separately, into fresh cc.ForLockManager engines. The call sequence is
// the one the simulator made, so the managers reach the same outcomes.
func (rp *replay) replayLocking(stream []access) {
	noGrant := func(lock.TxnID, lock.GranuleID) {}
	mgrs := make(map[int32]*lock.Manager)
	for _, a := range stream {
		m := mgrs[a.site]
		if m == nil {
			m = lock.NewManager(lock.VictimRequester, noGrant)
			mgrs[a.site] = m
		}
		if a.release {
			t := time.Now()
			m.ReleaseAll(lock.TxnID(a.gid))
			rp.lockRelease.add(t)
			continue
		}
		mode := lock.Shared
		if a.write {
			mode = lock.Exclusive
		}
		t := time.Now()
		out, _ := m.Request(lock.TxnID(a.gid), lock.GranuleID(a.granule), mode)
		rp.lockRequest.add(t)
		if out == lock.Wait {
			rp.lockWaits++
		}
	}
	engines := make(map[int32]cc.Protocol)
	for _, a := range stream {
		e := engines[a.site]
		if e == nil {
			e = cc.ForLockManager(lock.NewManager(lock.VictimRequester, noGrant), cc.TwoPhaseDetect)
			engines[a.site] = e
		}
		if a.release {
			e.Finish(cc.TxnID(a.gid))
			continue
		}
		t := time.Now()
		e.Access(cc.TxnID(a.gid), cc.GranuleID(a.granule), a.write)
		rp.cc2pl.add(t)
	}
}

// replayOCC feeds an OCC run's stream into fresh validators: Begin at a
// transaction's first access at a site, Validate before the release of a
// committed attempt.
func (rp *replay) replayOCC(stream []access, committed map[int64]bool) {
	occs := make(map[int32]*occ.Manager)
	began := make(map[siteGid]bool)
	for _, a := range stream {
		m := occs[a.site]
		if m == nil {
			m = occ.NewManager()
			occs[a.site] = m
		}
		k := siteGid{a.site, a.gid}
		if a.release {
			if committed[a.gid] && began[k] {
				t := time.Now()
				m.Validate(cc.TxnID(a.gid))
				rp.occValidate.add(t)
			}
			m.Finish(cc.TxnID(a.gid))
			delete(began, k)
			continue
		}
		if !began[k] {
			m.Begin(cc.TxnID(a.gid), a.gid)
			began[k] = true
		}
		t := time.Now()
		m.Access(cc.TxnID(a.gid), cc.GranuleID(a.granule), a.write)
		rp.occAccess.add(t)
	}
}

// replayQueCC feeds a QueCC run's stream into fresh schedulers: each
// attempt's whole access set at a site is planned at its first access
// there, then each access executes.
func (rp *replay) replayQueCC(stream []access) {
	plans := make(map[siteGid][]access)
	for _, a := range stream {
		if !a.release {
			k := siteGid{a.site, a.gid}
			plans[k] = append(plans[k], a)
		}
	}
	noWake := func(cc.TxnID) {}
	scheds := make(map[int32]*quecc.Scheduler)
	planned := make(map[siteGid]bool)
	for _, a := range stream {
		s := scheds[a.site]
		if s == nil {
			s = quecc.NewScheduler(noWake)
			scheds[a.site] = s
		}
		k := siteGid{a.site, a.gid}
		if a.release {
			s.Finish(cc.TxnID(a.gid))
			delete(planned, k)
			continue
		}
		if !planned[k] {
			for _, p := range plans[k] {
				s.Plan(cc.TxnID(p.gid), cc.GranuleID(p.granule), p.write)
			}
			planned[k] = true
		}
		t := time.Now()
		s.Access(cc.TxnID(a.gid), cc.GranuleID(a.granule), a.write)
		rp.queccAccess.add(t)
	}
}

// replayJournal feeds a stream into fresh per-site journals: a
// before-image per update access, then at each release a forced commit
// record for a committed attempt or a rollback for an aborted one.
func (rp *replay) replayJournal(stream []access, committed map[int64]bool) {
	var maxG int32
	for _, a := range stream {
		maxG = max(maxG, a.granule)
	}
	layout := storage.Layout{Granules: int(maxG) + 1, RecordsPerGran: 1}
	logs := make(map[int32]*wal.Log)
	stores := make(map[int32]*storage.Store)
	for _, a := range stream {
		l := logs[a.site]
		if l == nil {
			l = wal.NewLog()
			logs[a.site] = l
			stores[a.site] = storage.NewStore(layout)
		}
		switch {
		case !a.release && a.write:
			t := time.Now()
			l.LogBeforeImage(a.gid, stores[a.site], int(a.granule))
			rp.walBefore.add(t)
		case a.release && committed[a.gid]:
			t := time.Now()
			rec := l.Commit(a.gid)
			l.Force(rec.LSN)
			rp.walCommit.add(t)
		case a.release:
			t := time.Now()
			l.Rollback(a.gid, stores[a.site])
			rp.walRollback.add(t)
		}
	}
}

// kernelBench is the sim/disk closed-network micro-benchmark: the run's terminal
// population cycles through transactions with Table-2 mean demands on a
// bare sim.Env — exponential CPU bursts on a sim.Resource per site, block
// I/O through disk.Device.Do, think time through Proc.Hold — without the
// testbed's protocol layers. Each Use, Do or Hold it makes is one op.
type kernelBench struct {
	ops   int64
	host  time.Duration
	alloc uint64
}

func runKernelBench(r run, seed uint64, horizon float64) kernelBench {
	wl := r.wl
	env := sim.NewEnv()
	root := rng.New(seed)
	cpus := make([]*sim.Resource, wl.NumNodes)
	dbs := make([]*disk.Device, wl.NumNodes)
	logs := make([]*disk.Device, wl.NumNodes)
	for i := range cpus {
		cpus[i] = sim.NewResource(env, "cpu", max(wl.CPUs, 1))
		dbs[i] = disk.New(env, "db", wl.DBDisks[i], root.Split(uint64(2*i)))
		logs[i] = dbs[i]
		if wl.LogDisks != nil && wl.LogDisks[i] != nil {
			logs[i] = disk.New(env, "log", wl.LogDisks[i], root.Split(uint64(2*i+1)))
		}
	}
	terms := terminals(wl)
	think := 0.0
	if wl.Open != nil {
		// The open arrival rate as a finite source: the admitted population
		// thinks for population/λ between transactions.
		think = float64(len(terms)) / (wl.Open.RatePerSec / 1000)
	}
	var d kernelBench
	for i, u := range terms {
		rnd := root.Split(uint64(1000 + i))
		env.Spawn("terminal", func(p *sim.Proc) {
			costs := wl.Params.CostsFor(u.Home, u.Kind)
			// Use and Do fail only when a waiting process is interrupted,
			// and nothing here interrupts.
			use := func(site testbed.NodeID, mean float64) {
				_ = cpus[site].Use(p, rnd.Exp(mean))
				d.ops++
			}
			io := func(dev *disk.Device, op disk.OpKind) {
				_ = dev.Do(p, op, rnd.Intn(wl.Layout.Granules))
				d.ops++
			}
			for {
				for k := 0; k < wl.RequestsPerTxn; k++ {
					site := u.Home
					if u.Kind.Distributed() && k%2 == 1 {
						site = u.Remote
					}
					use(site, costs.UCPU+costs.TMCPU+costs.DMCPU)
					for j := 0; j < wl.RecordsPerRequest; j++ {
						use(site, costs.LRCPU+costs.DMIOCPU)
						io(dbs[site], disk.Read)
						if u.Kind.Update() {
							io(logs[site], disk.LogWrite)
							io(dbs[site], disk.Write)
						}
					}
				}
				use(u.Home, costs.CommitCPU)
				io(logs[u.Home], disk.ForceWrite)
				if think > 0 {
					p.Hold(rnd.Exp(think))
					d.ops++
				}
			}
		})
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := hostTime()
	env.Run(horizon)
	d.host = hostTime() - t
	runtime.ReadMemStats(&after)
	d.alloc = after.TotalAlloc - before.TotalAlloc
	env.Shutdown()
	return d
}

// solveTimer times core.Solve on the model of the first run that solves
// one, returning the median solve time in seconds over up to nine solves
// that fit in about a second (at least one), or 0 if no run has a model.
func solveTimer(runs []run) (float64, error) {
	i := 0
	for i < len(runs) && !runs[i].model {
		i++
	}
	if i == len(runs) {
		return 0, nil
	}
	var times []float64
	start := time.Now()
	for len(times) == 0 || (len(times) < 9 && time.Since(start) < time.Second) {
		m, err := runs[i].wl.Model()
		if err != nil {
			return 0, err
		}
		t := time.Now()
		if _, err := core.Solve(m); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return quantile(times, 0.5), nil
}

// ethernetTimer times comm.Ethernet.Breakdown at the fleet's host count
// over seeded message sizes and channel loads, returning ns per call, or
// 0 for a workload that does not run the shared fabric.
func ethernetTimer(wl workload.Workload, seed uint64, calls int) float64 {
	if wl.FabricHosts == 0 {
		return 0
	}
	eth := comm.DefaultEthernet()
	eth.Hosts = wl.FabricHosts
	if wl.FabricBandwidthBitsPerMS > 0 {
		eth.BandwidthBitsPerMS = wl.FabricBandwidthBitsPerMS
	}
	rnd := rng.New(seed)
	sizes := []int{32, 64, 256, 512}
	bytes := make([]int, calls)
	util := make([]float64, calls)
	for i := range bytes {
		bytes[i] = sizes[rnd.Intn(len(sizes))]
		util[i] = rnd.Uniform(0, 0.95)
	}
	var sum float64
	t := time.Now()
	for i := range bytes {
		raw, infl, queue := eth.Breakdown(bytes[i], util[i])
		sum += raw + infl + queue
	}
	ns := float64(time.Since(t).Nanoseconds()) / float64(calls)
	delaySink = sum
	return ns
}

// delaySink keeps the timed Breakdown calls from being optimized away.
var delaySink float64
