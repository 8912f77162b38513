package main

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"shfllock/internal/lockreg"
	"shfllock/internal/lockstat"
	"shfllock/internal/runtimeq"
)

// lockName is the registry name of the lock the lock-* workloads measure:
// core's blocking ShflLock.
const lockName = "shfl-mutex"

// yieldFactor sets lock-yield's goroutine count: this many per GOMAXPROCS,
// enough that the runtime counts as oversubscribed (runtimeq's factor is 4).
const yieldFactor = 32

// reservoir keeps a uniform random sample of at most cap(s) durations from
// an unbounded stream (Algorithm R), so the benchmark's own memory does not
// grow with the throughput it measures.
type reservoir struct {
	s    samples
	seen int64
	rng  *rand.Rand
}

func newReservoir(n int, seed int64) *reservoir {
	return &reservoir{s: touched(n), rng: rand.New(rand.NewSource(seed))}
}

// touched returns an empty sample slice of capacity n whose pages are
// already resident, so the benchmark's own resident memory does not grow
// while it measures.
func touched(n int) samples {
	s := make(samples, n)
	for i := range s {
		s[i] = 1
	}
	return s[:0]
}

func (r *reservoir) add(ns int64) {
	r.seen++
	if len(r.s) < cap(r.s) {
		r.s = append(r.s, ns)
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(len(r.s)) {
		r.s[j] = ns
	}
}

func mergeReservoirs(rs []*reservoir) samples {
	var out samples
	for _, r := range rs {
		out = append(out, r.s...)
	}
	slices.Sort(out)
	return out
}

// lockShared is the data the critical section touches: an occupancy probe,
// the shared operation counter and a few more cache lines.
type lockShared struct {
	occ     atomic.Int32
	_       [60]byte
	counter uint64
	_       [56]byte
	lines   [3]struct {
		v uint64
		_ [56]byte
	}
	_          [64]byte
	violations atomic.Int64
}

// windows splits every measured pass into this many equal windows; a
// pass reports the median of the per-window figures, so a burst of host
// noise spoils one window, not the run.
const windows = 20

// lockWorker is one closed-loop goroutine.
type lockWorker struct {
	work    []uint8 // seeded non-critical work per op, in LCG steps
	sink    uint64  // the work's result, so it is not optimised away
	ops     uint64
	win     int                 // window the worker last saw
	winOps  [windows + 1]uint64 // ops completed when the worker entered each window
	acquire [windows]*reservoir // time inside Lock(), per window
	unlock  *reservoir          // time inside Unlock() (traced)
	hold    *reservoir          // Lock() return to Unlock() call (traced)
	lane    *lane
	// pending is the start (ns since the run's epoch, +1) of a timed Lock()
	// still waiting, 0 when none: a waiter still queued when the run stops
	// is counted with its wait so far, so starvation reaches the tail.
	pending atomic.Int64
	_       [64]byte
}

// lockRun is one prepared closed loop: n goroutines parked at a start gate.
type lockRun struct {
	l       sync.Locker
	shape   lockShape
	sh      *lockShared
	workers []*lockWorker
	gate    chan struct{}
	stop    atomic.Bool
	window  atomic.Int32
	wg      sync.WaitGroup
	epoch   time.Time
	// censored holds the waits of timed Lock() calls still pending at stop.
	censored samples
}

// lockShape is the load shape shared by the ShflLock pass and the
// sync.Mutex reference pass.
type lockShape struct {
	goroutines int
	yield      bool  // holder calls runtime.Gosched() inside the section
	every      int   // time every every-th Lock() (a power of two)
	spanEvery  int   // traced: record spans for every spanEvery-th op
	keep       int   // reservoir size per goroutine and window
	seed       int64 // seeds the non-critical work
}

// seedWork makes every goroutine's non-critical work from the seed: 4096
// step counts of 0-127 each, read-only, shared by every run of the shape.
func seedWork(sh lockShape) [][]uint8 {
	work := make([][]uint8, sh.goroutines)
	for g := range work {
		rng := rand.New(rand.NewSource(sh.seed*1_000_003 + int64(g)))
		work[g] = make([]uint8, 4096)
		for i := range work[g] {
			work[g][i] = uint8(rng.Intn(128))
		}
	}
	return work
}

// newLockRun builds one worker per goroutine on the seeded work, each
// recording spans on its lane when lanes is not nil; start then puts them
// to work on a lock.
func newLockRun(sh lockShape, work [][]uint8, lanes []*lane) *lockRun {
	r := &lockRun{shape: sh, sh: &lockShared{}, gate: make(chan struct{}), epoch: time.Now()}
	for g := 0; g < sh.goroutines; g++ {
		w := &lockWorker{work: work[g]}
		if lanes != nil {
			w.lane = lanes[g]
		}
		r.workers = append(r.workers, w)
	}
	return r
}

// start starts one goroutine per worker on l, parked at the gate.
func (r *lockRun) start(l sync.Locker, tr *tracer) {
	r.l = l
	for _, w := range r.workers {
		r.wg.Add(1)
		go r.loop(w, tr)
	}
}

func (r *lockRun) loop(w *lockWorker, tr *tracer) {
	defer r.wg.Done()
	<-r.gate
	sh := r.shape
	mask := uint64(sh.every - 1)
	spanMask := uint64(sh.spanEvery - 1)
	x := uint64(len(w.work))
	s := r.sh
	for i := uint64(0); !r.stop.Load(); i++ {
		if win := int(r.window.Load()); win != w.win {
			for k := w.win + 1; k <= win; k++ {
				w.winOps[k] = w.ops
			}
			w.win = win
		}
		n := w.work[i&4095]
		timed := i&mask == 0
		spanned := tr != nil && i&spanMask == 0
		var t0, t1 time.Time
		if timed || spanned {
			t0 = time.Now()
			w.pending.Store(int64(t0.Sub(r.epoch)) + 1)
		}
		r.l.Lock()
		if timed || spanned {
			t1 = time.Now()
			w.pending.Store(0)
			if !r.stop.Load() {
				w.acquire[w.win].add(int64(t1.Sub(t0)))
			}
		}
		if s.occ.Add(1) != 1 {
			s.violations.Add(1)
		}
		s.counter++
		s.lines[0].v += uint64(n)
		s.lines[1].v ^= x
		s.lines[2].v++
		if sh.yield {
			runtime.Gosched()
		}
		s.occ.Add(-1)
		if spanned {
			t2 := time.Now()
			r.l.Unlock()
			t3 := time.Now()
			w.hold.add(int64(t2.Sub(t1)))
			w.unlock.add(int64(t3.Sub(t2)))
			op := tr.id()
			w.lane.add(tr.id(), op, 0, "Lock", "core", t0, t1)
			w.lane.add(tr.id(), op, 0, "critical-section", "perfbench", t1, t2)
			w.lane.add(tr.id(), op, 0, "Unlock", "core", t2, t3)
			w.lane.add(op, 0, 0, "op", "perfbench", t0, t3)
		} else {
			r.l.Unlock()
		}
		w.ops++
		for k := uint8(0); k < n; k++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	for k := w.win + 1; k <= windows; k++ {
		w.winOps[k] = w.ops
	}
	w.sink = x
}

// measure allocates the sample reservoirs, opens the gate, runs for d in
// equal windows, stops every goroutine and waits for all of them. It
// returns the measured wall time of each window.
func (r *lockRun) measure(d time.Duration, traced bool) []time.Duration {
	for g, w := range r.workers {
		for k := range w.acquire {
			w.acquire[k] = newReservoir(r.shape.keep, r.shape.seed+int64(g*windows+k))
		}
		if traced {
			w.unlock = newReservoir(r.shape.keep, r.shape.seed-int64(g))
			w.hold = newReservoir(r.shape.keep, r.shape.seed^int64(g))
		}
	}
	var els []time.Duration
	t0 := time.Now()
	close(r.gate)
	for k := 1; k <= windows; k++ {
		time.Sleep(time.Until(t0.Add(d * time.Duration(k) / windows)))
		if k < windows {
			r.window.Store(int32(k))
		} else {
			r.stop.Store(true)
		}
		els = append(els, time.Since(t0)-sum(els))
	}
	now := int64(time.Since(r.epoch))
	for _, w := range r.workers {
		if p := w.pending.Load(); p != 0 {
			r.censored = append(r.censored, now-(p-1))
		}
	}
	r.wg.Wait()
	return els
}

func sum(ds []time.Duration) (t time.Duration) {
	for _, d := range ds {
		t += d
	}
	return t
}

// cancel releases goroutines that were set up but never measured.
func (r *lockRun) cancel() {
	r.stop.Store(true)
	close(r.gate)
	r.wg.Wait()
}

// verify checks mutual exclusion and that every completed op is counted.
func (e *env) verifyLock(r *lockRun, label string) (ops uint64) {
	for _, w := range r.workers {
		ops += w.ops
	}
	e.attempted += int64(ops)
	v := r.sh.violations.Load()
	e.check(v == 0, "%s: critical-section occupancy exceeded 1 on %d ops", label, v)
	e.check(r.sh.counter == ops, "%s: shared counter %d != completed ops %d", label, r.sh.counter, ops)
	if v != 0 || r.sh.counter != ops {
		e.failed += int64(max(v, 1))
	}
	return ops
}

func newShflMutex() (sync.Locker, error) {
	ent, ok := lockreg.Find(lockName)
	if !ok {
		return nil, lockreg.UnknownNative(lockName)
	}
	n, err := ent.NewNative(lockreg.CapBlocking)
	if err != nil {
		return nil, err
	}
	return n.Locker, nil
}

func runLock(e *env, yield bool) error {
	sh := lockShape{goroutines: e.procs, yield: yield, every: 16, spanEvery: 1024, keep: 1 << 14, seed: e.seed}
	label := "lock-tight"
	if yield {
		sh = lockShape{goroutines: yieldFactor * e.procs, yield: true, every: 1, spanEvery: 16, keep: 1 << 10, seed: e.seed}
		label = "lock-yield"
	}
	// Set-up builds the lock through the registry and starts the goroutines
	// at the gate. Releasing the previous set-up's goroutines and building
	// the workers is the benchmark's own, untimed work.
	work := seedWork(sh)
	var run *lockRun
	prep := func(lanes []*lane) func() error {
		return func() error {
			if run != nil {
				run.cancel()
			}
			run = newLockRun(sh, work, lanes)
			return nil
		}
	}
	setup := func(tr *tracer, wrap func(sync.Locker) sync.Locker) func() error {
		return func() error {
			l, err := newShflMutex()
			if err != nil {
				return err
			}
			run.start(wrap(l), tr)
			return nil
		}
	}
	bare := func(l sync.Locker) sync.Locker { return l }
	setupU, err := timeSetup(setupReps, prep(nil), setup(nil, bare))
	if err != nil {
		return err
	}
	secs := e.seconds
	if e.traced {
		secs /= 2
	}
	u, _ := e.lockPass(run, label, secs, false)
	run = nil // measured: its goroutines have exited
	if !e.traced {
		e.report(setupU, u)
		return nil
	}

	memU := peakRSSMB()
	tr := newTracer()
	reg := lockstat.NewRegistry()
	var site *lockstat.Lock
	lanes := make([]*lane, sh.goroutines) // one per goroutine, shared by every set-up
	for g := range lanes {
		lanes[g] = tr.lane(g)
	}
	setupT, err := timeSetup(setupReps, prep(lanes), setup(tr, func(l sync.Locker) sync.Locker {
		site = reg.Instrument(l, label) // one site: cancelled set-ups never acquire
		return site
	}))
	if err != nil {
		return err
	}
	// The profile covers the traced pass only, not the set-ups before it.
	prof, err := startProfile()
	if err != nil {
		return err
	}
	stopSampler := sampleRuntimeq()
	before := takeRuntimeSnap()
	t, p999 := e.lockPass(run, label, secs, true)
	rt := diffRuntime(before, takeRuntimeSnap())
	oversub, stale := stopSampler()
	layer := map[string]float64{}
	if err := prof.stop(layer); err != nil {
		return err
	}
	t.layer = layer

	var unl, hold []*reservoir
	for _, w := range run.workers {
		unl, hold = append(unl, w.unlock), append(hold, w.hold)
	}
	layer["core.unlock_ns_p50"] = mergeReservoirs(unl).quantile(0.5)
	layer["core.hold_ns_p50"] = mergeReservoirs(hold).quantile(0.5)
	layer["core.acquire_p999_us"] = p999
	rep := site.Site().Report()
	say("lockstat %s: acquires=%d contended=%d handoffs=%d steals=%d parks=%d wakeups_in_cs=%d wakeups_off_cs=%d shuffles=%d scanned=%d moved=%d",
		rep.Name, rep.Acquires, rep.Contended, rep.Handoffs, rep.Steals, rep.Parks, rep.WakeupsInCS, rep.WakeupsOffCS,
		rep.Shuffles, rep.ShuffleScanned, rep.ShuffleMoves)
	if msg := rep.Consistent(); msg != "" {
		e.check(false, "%s: lockstat report inconsistent: %s", label, msg)
	}
	acq := float64(rep.Acquires)
	if acq > 0 {
		layer["core.contended_frac"] = float64(rep.Contended) / acq
		layer["core.handoffs_per_op"] = float64(rep.Handoffs) / acq
		layer["core.steals_per_op"] = float64(rep.Steals) / acq
		layer["core.parks_per_op"] = float64(rep.Parks) / acq
		layer["shuffle.rounds_per_op"] = float64(rep.Shuffles) / acq
	}
	if w := rep.WakeupsInCS + rep.WakeupsOffCS; w > 0 {
		layer["core.wakeups_off_cs_frac"] = float64(rep.WakeupsOffCS) / float64(w)
	}
	if rep.Shuffles > 0 {
		layer["shuffle.moves_per_round"] = float64(rep.ShuffleMoves) / float64(rep.Shuffles)
		layer["shuffle.scanned_per_round"] = float64(rep.ShuffleScanned) / float64(rep.Shuffles)
	}
	layer["runtimeq.oversub_frac"] = oversub
	layer["runtimeq.procs_stale"] = stale
	layer["go.sched_p99_us"] = rt.schedP99Us
	layer["cpu_util"] = rt.cpuUtil
	layer["go.alloc_mb"] = rt.allocMB
	var ops uint64
	for _, w := range run.workers {
		ops += w.ops
	}
	if ops > 0 {
		layer["go.alloc_bytes_per_op"] = rt.allocBytes / float64(ops)
	}
	if err := e.writeTrace(tr, layer); err != nil {
		return err
	}

	// The same load shape on sync.Mutex: a host-noise canary that no change
	// to this repository should move.
	ref := newLockRun(sh, work, nil)
	ref.start(&sync.Mutex{}, nil)
	refEl := ref.measure(time.Duration(secs/4*float64(time.Second)), false)
	layer["ref.sync_mutex.ops_per_s"] = float64(e.verifyLock(ref, label+"/sync.Mutex")) / sum(refEl).Seconds()

	e.reportTraced(setupU, setupT, memU, u, t)
	return nil
}

// lockPass measures the prepared run for seconds and verifies it. Its
// figures are medians over the windows; the second result is the median
// of the per-window 99.9th percentiles of acquire time, in µs.
func (e *env) lockPass(run *lockRun, label string, seconds float64, traced bool) (passResult, float64) {
	els := run.measure(time.Duration(seconds*float64(time.Second)), traced)
	ops := e.verifyLock(run, label)
	var rates, p50s, p99s, p999s, per []float64
	for k := 0; k < windows; k++ {
		var n uint64
		var acq []*reservoir
		for _, w := range run.workers {
			n += w.winOps[k+1] - w.winOps[k]
			acq = append(acq, w.acquire[k])
		}
		if k == windows-1 {
			acq = append(acq, &reservoir{s: run.censored})
		}
		a := mergeReservoirs(acq)
		rates = append(rates, float64(n)/els[k].Seconds())
		p50s = append(p50s, a.quantile(0.5)/1e3)
		p99s = append(p99s, a.quantile(0.99)/1e3)
		p999s = append(p999s, a.quantile(0.999)/1e3)
	}
	for _, w := range run.workers {
		per = append(per, float64(w.ops))
	}
	sort.Float64s(per)
	r := passResult{opsPerS: median(rates), p50: median(p50s), p99: median(p99s)}
	say("%s: %d goroutines, %d ops in %.3f s", label, len(run.workers), ops, sum(els).Seconds())
	say("ops per goroutine: min %.0f median %.0f max %.0f; %d waits still pending at stop, longest %.3f ms",
		per[0], median(per), per[len(per)-1], len(run.censored), float64(slices.Max(append(run.censored, 0)))/1e6)
	say("acquire_p50_us %.4f us (windows %s)", r.p50, fmtList(p50s))
	say("acquire_p99_us %.4f us (windows %s)", r.p99, fmtList(p99s))
	say("ops_per_s %.0f 1/s (windows %s)", r.opsPerS, fmtList(rates))
	return r, median(p999s)
}

// sampleRuntimeq polls runtimeq's cached verdicts every 5ms until the
// returned function is called; that function returns the share of samples
// that were oversubscribed and the share whose cached P count disagreed
// with GOMAXPROCS.
func sampleRuntimeq() func() (oversub, stale float64) {
	done := make(chan struct{})
	var n, over, st int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tk := time.NewTicker(5 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-done:
				return
			case <-tk.C:
				n++
				if runtimeq.Oversubscribed() {
					over++
				}
				if runtimeq.Procs() != runtime.GOMAXPROCS(0) {
					st++
				}
			}
		}
	}()
	return func() (float64, float64) {
		close(done)
		wg.Wait()
		if n == 0 {
			return 0, 0
		}
		return float64(over) / float64(n), float64(st) / float64(n)
	}
}
