// Package sim is a deterministic discrete-event simulator of a NUMA
// multiprocessor. Simulated threads are ordinary Go functions that run as
// iter.Pull coroutines, and the engine executes exactly one of them at a
// time: a blocking thread runs the event loop on its own coroutine, then
// either keeps running in place (its own event was next) or yields the
// next thread to the hub loop in Run, which resumes that thread's
// coroutine. A coroutine switch never goes through the Go scheduler's run
// queues. All simulator state is therefore mutated race-free and every run
// is bit-reproducible for a given seed.
//
// Threads interact with the machine through the Thread API: typed atomic
// operations on simulated memory words (charged by the memsim cost model),
// busy-wait primitives that consume CPU quantum, and scheduler calls
// (park/unpark/yield) that model the kernel's blocking primitives. Lock
// algorithms from the paper are written against this API in ordinary
// sequential style.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"

	"shfllock/internal/alloc/arena"
	"shfllock/internal/memsim"
	"shfllock/internal/topology"
)

// Word re-exports memsim.Word so lock implementations only import sim.
type Word = memsim.Word

// Config parameterizes an Engine.
type Config struct {
	Topo  topology.Machine
	Costs topology.CostModel
	Seed  int64
	// HardStop aborts the simulation (panic) if virtual time exceeds this
	// bound; it guards against livelocked protocols. Zero disables it.
	HardStop uint64
	// NoFastPath forces every virtual-time advance and every CPU handoff
	// through the event queue (the -enginefast=false mode). The fast path
	// is on by default; results are identical either way — the slow path
	// survives as the correctness oracle the differential tests diff
	// against.
	NoFastPath bool
	// NoWheel replaces the timer wheel with the reference binary event
	// heap and disables per-point arena allocation (the -enginewheel=false
	// mode). Results are identical either way; the heap survives as the
	// ordering oracle the wheel is differentially tested against.
	NoWheel bool
}

// PathStats counts how control returned to threads: in place (fast path)
// or through a full event-queue round trip.
type PathStats struct {
	// FastResumes counts charge steps absorbed by advancing the clock in
	// place — no event, no coroutine switch.
	FastResumes uint64 `json:"fast_resumes"`
	// FastHandoffs counts CPU handoffs (resched, park, wake-dispatch) that
	// bypassed the event queue.
	FastHandoffs uint64 `json:"fast_handoffs"`
	// EngineTrips counts control transfers through the engine's event
	// loop — the slow path.
	EngineTrips uint64 `json:"engine_trips"`
}

// FastShare returns the percentage of control transfers that took a fast
// path.
func (p PathStats) FastShare() float64 {
	total := p.FastResumes + p.FastHandoffs + p.EngineTrips
	if total == 0 {
		return 0
	}
	return 100 * float64(p.FastResumes+p.FastHandoffs) / float64(total)
}

func (p *PathStats) add(o PathStats) {
	p.FastResumes += o.FastResumes
	p.FastHandoffs += o.FastHandoffs
	p.EngineTrips += o.EngineTrips
}

// Add accumulates another engine's counters (harness aggregation).
func (p *PathStats) Add(o PathStats) { p.add(o) }

// Engine owns the virtual clock, the event queue, the simulated memory, and
// the per-core scheduler state.
type Engine struct {
	topo  topology.Machine
	costs topology.CostModel
	mem   *memsim.Memory

	now uint64
	seq uint64
	// The event queue has two interchangeable backends with identical
	// (at, seq) pop order: the timer wheel (default) and the reference
	// binary heap (cfg.NoWheel, the ordering oracle). minAt caches the
	// exact minimum pending time — noEvent when the queue is empty — so
	// fastCovers is a single compare whichever backend is active.
	useWheel bool
	minAt    uint64
	wheel    timerWheel
	evq      eventHeap
	cpus     []cpu

	threads []*Thread
	// nexts holds each thread's coroutine resume func, indexed by thread
	// id: the hub loop in Run calls nexts[t.id] to hand t the CPU.
	nexts []func() (*Thread, bool)
	live  int

	running *Thread
	// handTo is where a finished thread's coroutine records the thread it
	// handed the CPU to (nil when the run is over) before returning.
	handTo *Thread

	// watchq holds, per cache line, the threads spin-waiting on it, in
	// registration order. The slices are pooled in place: onWrite truncates
	// a drained list to length zero and leaves the capacity on the line's
	// slot, so steady-state watch/wake cycles never allocate.
	watchq [][]*Thread

	// assoc carries values scoped to this engine instance (e.g. a lock
	// maker's per-run slab allocator). Long-lived callers must key caches
	// here rather than by *Engine in their own maps: engines are pooled, so
	// a pointer does not identify a run — a map keyed by it would resurrect
	// a previous run's state when the pointer is recycled. assoc is cleared
	// on Recycle, tying every entry's lifetime to the run that made it.
	assoc map[any]any

	stopped  bool
	hardStop uint64
	fast     bool // direct time advance + direct handoff enabled
	rng      *rand.Rand

	// injector, when non-nil, receives fault-injection queries (chaos runs).
	injector Injector

	// Counters of scheduler activity, reported by experiments.
	Preemptions uint64
	CtxSwitches uint64
	ParkCount   uint64
	UnparkCount uint64
	YieldCount  uint64
	paths       PathStats
	started     bool
}

// enginePool and threadPool recycle the per-sweep-point scheduler state
// (the wheel's slot arrays are pooled separately in wheelScratch). The reset
// functions keep only backing that is safe and profitable to reuse: the
// watch table's per-line slices, the thread/cpu/coroutine arrays and the
// rand generators, which are reseeded from scratch on reuse so draw order
// matches a fresh allocation.
// Only wheel-mode engines touch the pools; NoWheel is the plain-heap oracle.
var enginePool = arena.New(func(e *Engine) {
	watchq := e.watchq
	for i := range watchq {
		watchq[i] = watchq[i][:0]
	}
	clear(e.assoc)
	clear(e.nexts)
	*e = Engine{
		watchq:  watchq,
		assoc:   e.assoc,
		threads: e.threads[:0],
		nexts:   e.nexts[:0],
		cpus:    e.cpus[:0],
		rng:     e.rng,
	}
})

var threadPool = arena.New(func(t *Thread) {
	*t = Thread{rng: t.rng}
})

// NewEngine builds an engine for the given machine.
func NewEngine(cfg Config) *Engine {
	if err := cfg.Topo.Validate(); err != nil {
		panic(err)
	}
	if cfg.Costs == (topology.CostModel{}) {
		cfg.Costs = topology.DefaultCosts()
	}
	if err := cfg.Costs.Validate(); err != nil {
		panic(err)
	}
	var e *Engine
	if cfg.NoWheel {
		e = &Engine{
			mem: memsim.New(cfg.Topo, cfg.Costs),
			rng: rand.New(rand.NewSource(cfg.Seed)),
		}
	} else {
		e = enginePool.Get()
		e.mem = memsim.NewPooled(cfg.Topo, cfg.Costs)
		if e.rng == nil {
			e.rng = rand.New(rand.NewSource(cfg.Seed))
		} else {
			// Rand.Seed fully rewinds the source and the cached read state,
			// so a recycled generator replays the same stream a fresh one
			// would.
			e.rng.Seed(cfg.Seed)
		}
		e.wheel.init()
	}
	e.topo = cfg.Topo
	e.costs = cfg.Costs
	e.hardStop = cfg.HardStop
	e.fast = !cfg.NoFastPath
	e.useWheel = !cfg.NoWheel
	e.minAt = noEvent
	cores := cfg.Topo.Cores()
	if cap(e.cpus) >= cores {
		e.cpus = e.cpus[:cores]
	} else {
		e.cpus = make([]cpu, cores)
	}
	for i := range e.cpus {
		c := &e.cpus[i]
		*c = cpu{id: i, socket: cfg.Topo.SocketOf(i), runq: c.runq[:0]}
	}
	return e
}

// Recycle hands the engine's scheduler state, its threads and its memory
// image back to the per-point arena pools. It must be called only after Run
// has returned cleanly with every thread finished, so every coroutine has
// returned. An aborted or panicked run leaves unfinished coroutines
// suspended for good, still pointing at their threads and at the engine;
// recycling those would hand live references to a future run. The live==0
// guard makes Recycle a no-op in exactly those cases, as it is in NoWheel
// (oracle) mode. The caller must hold no references into the engine, its
// memory or its threads afterwards.
func (e *Engine) Recycle() {
	if !e.useWheel || !e.started || e.live != 0 {
		return
	}
	mem := e.mem
	for i, t := range e.threads {
		e.threads[i] = nil
		threadPool.Put(t)
	}
	e.threads = e.threads[:0]
	enginePool.Put(e)
	mem.Recycle()
}

// Mem exposes the simulated memory for allocation and statistics.
func (e *Engine) Mem() *memsim.Memory { return e.mem }

// Pooled reports whether the engine draws its per-point state from the
// arena pools (wheel mode). Workload-owned caches (e.g. kvstore tables)
// key their own pooling off it so the NoWheel oracle stays pool-free.
func (e *Engine) Pooled() bool { return e.useWheel }

// Assoc returns the value stored under key for this engine instance, or nil.
// See the assoc field for why engine-scoped state must live here and not in
// caller-side maps keyed by *Engine. Engine code runs one thread at a time,
// so no locking is needed.
func (e *Engine) Assoc(key any) any { return e.assoc[key] }

// SetAssoc stores an engine-scoped value; it is dropped when the engine is
// recycled.
func (e *Engine) SetAssoc(key, val any) {
	if e.assoc == nil {
		e.assoc = make(map[any]any)
	}
	e.assoc[key] = val
}

// Topology returns the simulated machine layout.
func (e *Engine) Topology() topology.Machine { return e.topo }

// Costs returns the cost model in effect.
func (e *Engine) Costs() topology.CostModel { return e.costs }

// Now returns the current virtual time in cycles.
func (e *Engine) Now() uint64 { return e.now }

// Stopped reports whether the stop flag has been raised.
func (e *Engine) Stopped() bool { return e.stopped }

// PathStats returns the fast-path/slow-path transfer counters.
func (e *Engine) PathStats() PathStats { return e.paths }

// Threads returns all spawned threads.
func (e *Engine) Threads() []*Thread { return e.threads }

// Spawn creates a simulated thread pinned to the given core. Threads must
// be spawned before Run. Pass core -1 to pin round-robin by spawn order,
// which matches how the paper's benchmarks pin threads (over-subscription
// lands thread N on core N mod cores).
func (e *Engine) Spawn(name string, core int, fn func(*Thread)) *Thread {
	if e.started {
		panic("sim: Spawn after Run")
	}
	if core < 0 {
		core = len(e.threads) % len(e.cpus)
	}
	if core >= len(e.cpus) {
		panic(fmt.Sprintf("sim: core %d out of range", core))
	}
	var t *Thread
	if e.useWheel {
		t = threadPool.Get() // reset at Put: zero but for rng
	} else {
		t = &Thread{}
	}
	t.id = len(e.threads)
	t.name = name
	t.eng = e
	t.cpu = &e.cpus[core]
	t.state = tsReady
	t.watchLine = -1
	if seed := e.rng.Int63(); t.rng == nil {
		t.rng = rand.New(rand.NewSource(seed))
	} else {
		t.rng.Seed(seed) // full rewind: replays the stream a fresh rng would
	}
	e.threads = append(e.threads, t)
	e.live++
	t.cpu.enqueue(t)
	next, _ := iter.Pull(func(yield func(*Thread) bool) {
		// iter.Pull re-raises a coroutine's panic in Run with the value
		// alone; keep the thread's stack so the failing line is reported.
		defer func() {
			if p := recover(); p != nil {
				panic(fmt.Sprintf("%v\n\nsim: panic in thread %d %q:\n%s", p, t.id, t.name, debug.Stack()))
			}
		}()
		t.yield = yield
		fn(t)
		e.threadDone(t)
		// Keep driving the event loop from this coroutine until control
		// lands on another thread (or the run is over), then tell the hub.
		e.handTo = e.schedule(nil)
	})
	e.nexts = append(e.nexts, next)
	return t
}

// StopAt raises the stop flag at the given virtual time. Workloads poll
// Thread.Stopped and exit their measurement loops; the run then drains.
func (e *Engine) StopAt(at uint64) {
	e.push(event{at: at, kind: evStop})
}

func (e *Engine) push(ev event) {
	ev.seq = e.seq
	e.seq++
	if e.useWheel {
		e.wheel.push(ev, e.now)
		e.minAt = e.wheel.minAt
		return
	}
	e.evq.push(ev)
	e.minAt = e.evq[0].at
}

// pop removes the (at, seq)-minimum pending event; the queue must be
// non-empty (e.minAt != noEvent).
func (e *Engine) pop() event {
	if e.useWheel {
		ev := e.wheel.pop(e.now)
		e.minAt = e.wheel.minAt
		return ev
	}
	ev := e.evq.pop()
	if len(e.evq) > 0 {
		e.minAt = e.evq[0].at
	} else {
		e.minAt = noEvent
	}
	return ev
}

// pending returns the number of queued events (diagnostics only).
func (e *Engine) pending() int {
	if e.useWheel {
		return e.wheel.size()
	}
	return len(e.evq)
}

// Run executes the simulation until every thread has finished or a thread
// calls Abort. It panics on deadlock (live threads but no pending events)
// and on HardStop overrun, and a panic inside a thread's function reaches
// Run's caller the same way.
//
// Run is the hub: it resumes one thread coroutine at a time and waits for
// it to yield the thread that runs next. A coroutine that finishes records
// that thread in handTo instead.
func (e *Engine) Run() {
	if e.started {
		panic("sim: Run called twice")
	}
	e.started = true
	e.mem.OnWrite = e.onWrite
	for i := range e.cpus {
		c := &e.cpus[i]
		if c.qlen() > 0 {
			c.dispatchNext(e)
		}
	}
	for t := e.schedule(nil); t != nil; {
		next, ok := e.nexts[t.id]()
		if !ok {
			next = e.handTo
		}
		t = next
	}
	// The simulation is over: hand the wheel's slot arrays back to the
	// pool (recycle clears any stale leftover events first). Panicking
	// paths skip this, so their diagnostics still see the queue.
	e.wheel.recycle()
}

// schedule runs the event loop until control is handed to a thread, and
// returns that thread, or nil when every thread has finished. It executes
// on whichever coroutine is giving up control — the blocking thread itself
// — so when the next event resumes that very thread (self; nil from Run
// and from a finished thread) there is no switch at all: the caller just
// keeps running. Otherwise the caller passes the returned thread to the
// hub, which resumes it.
func (e *Engine) schedule(self *Thread) *Thread {
	if e.live == 0 {
		return nil
	}
	for {
		if e.minAt == noEvent {
			panic("sim: deadlock — live threads but no pending events\n" + e.dump())
		}
		ev := e.pop()
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		if e.hardStop > 0 && e.now > e.hardStop {
			panic("sim: hard stop exceeded — livelocked protocol?\n" + e.dump())
		}
		switch ev.kind {
		case evStop:
			e.stopped = true
		case evResume:
			t := ev.t
			if t.epoch != ev.epoch {
				continue // stale
			}
			e.paths.EngineTrips++
			e.handoff(t)
			return t
		case evPreempt:
			t := ev.t
			if t.epoch != ev.epoch || t.state != tsSpinWait {
				continue
			}
			// Hand the CPU back to the spin-waiting thread with
			// needResched raised: handoff's spin-wait bookkeeping zeroes
			// its quantum, so the thread's next scheduling check parks,
			// yields, or rescheds it (kernel-style preemption point).
			e.paths.EngineTrips++
			e.handoff(t)
			return t
		case evWake:
			t := ev.t
			if t.epoch != ev.epoch || t.state != tsWaking {
				continue
			}
			if next := e.makeRunnable(t); next != nil {
				return next
			}
		case evTimerWake:
			// A park timeout or injected spurious wakeup: wake the thread
			// without an unpark permit. Stale once the thread was properly
			// unparked (epoch moved) or is no longer parked.
			t := ev.t
			if t.epoch != ev.epoch || t.state != tsParked {
				continue
			}
			if next := e.makeRunnable(t); next != nil {
				return next
			}
		}
	}
}

// handoff gives the CPU to t; the caller of schedule switches to t's
// coroutine unless t is itself.
func (e *Engine) handoff(t *Thread) {
	t.epoch++
	if t.state == tsSpinWait {
		// Woken by a write to the watched line: account the time spent
		// spinning against the quantum and detach from the watch set.
		t.quantumLeft = t.spinQuantum - int64(e.now-t.spinStart)
		if t.quantumLeft <= 0 {
			t.needResched = true
		}
		t.detachWatch()
	}
	t.state = tsRunning
	e.running = t
}

// fastCovers reports whether the queue-top invariant licenses advancing
// the clock by step without an engine round trip: fast mode is on and
// every pending event fires strictly later than now+step. Ties (an event
// at exactly now+step) must take the slow path — the queued event carries
// a smaller seq than the resume the slow path would push, so the (at, seq)
// order runs the queued event first. minAt is noEvent (MaxUint64) when the
// queue is empty, so the empty case needs no separate branch.
func (e *Engine) fastCovers(step uint64) bool {
	return e.fast && e.minAt > e.now+step
}

// fastAdvance moves virtual time forward in place (fast path). The hard
// stop is checked here because the slow path checks it when popping the
// resume event this advance replaces.
func (e *Engine) fastAdvance(step uint64) {
	e.now += step
	if e.hardStop > 0 && e.now > e.hardStop {
		panic("sim: hard stop exceeded — livelocked protocol?\n" + e.dump())
	}
}

// makeRunnable places a woken thread on its core's run queue, dispatching
// immediately if the core is idle and arranging preemption of a spinner
// whose quantum has expired. Returns the thread control was handed to when
// the idle-core dispatch took the fast path, nil otherwise (the event loop
// keeps running).
func (e *Engine) makeRunnable(t *Thread) *Thread {
	t.state = tsReady
	t.epoch++
	c := t.cpu
	c.enqueue(t)
	switch {
	case c.cur == nil:
		e.CtxSwitches++
		if e.fastCovers(e.costs.CtxSwitch) {
			// Idle core, no event can fire inside the switch: skip the
			// dispatch event and hand the CPU over right away.
			e.paths.FastHandoffs++
			e.fastAdvance(e.costs.CtxSwitch)
			next := c.dispatchFast(e)
			next.epoch++
			next.state = tsRunning
			e.running = next
			return next
		}
		c.dispatchNext(e)
	case c.cur.state == tsSpinWait:
		e.schedulePreempt(c.cur)
	}
	return nil
}

// schedulePreempt arms a preemption event for a spin-waiting thread at the
// moment its remaining quantum runs out.
func (e *Engine) schedulePreempt(t *Thread) {
	rem := t.spinQuantum - int64(e.now-t.spinStart)
	if rem < 0 {
		rem = 0
	}
	e.push(event{at: e.now + uint64(rem), kind: evPreempt, t: t, epoch: t.epoch})
}

// addWatcher registers t on the written-line wake list of the given line,
// growing the per-line table on first use.
func (e *Engine) addWatcher(line int32, t *Thread) {
	for int(line) >= len(e.watchq) {
		e.watchq = append(e.watchq, nil)
	}
	e.watchq[line] = append(e.watchq[line], t)
}

// onWrite is installed as the memory's write callback; it wakes every
// thread spin-waiting on the written line, in registration order.
func (e *Engine) onWrite(line int32) {
	if int(line) >= len(e.watchq) {
		return
	}
	ws := e.watchq[line]
	if len(ws) == 0 {
		return
	}
	// Truncate in place before walking: the capacity stays on the line's
	// slot, so the next watch/wake cycle on this line reuses it instead of
	// allocating. No thread can run (and re-register) during the walk.
	e.watchq[line] = ws[:0]
	for _, t := range ws {
		if t.state != tsSpinWait || t.watchLine != line {
			continue // stale entry: the thread was preempted or moved on
		}
		e.push(event{at: e.now + e.costs.SpinRecheck, kind: evResume, t: t, epoch: t.epoch})
	}
}

// threadDone is called (from the thread's coroutine) when a thread's
// function returns.
func (e *Engine) threadDone(t *Thread) {
	t.state = tsDone
	t.epoch++
	e.live--
	if t.cpu.cur == t {
		e.CtxSwitches++
		t.cpu.dispatchNext(e)
	}
}

// dump renders scheduler state for deadlock diagnostics: every live
// thread, every core's current thread and run-queue contents, and a
// summary of the pending events — enough to diagnose a hard stop or a
// deadlock panic without a debugger.
func (e *Engine) dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%d live=%d\n", e.now, e.live)
	for _, t := range e.threads {
		if t.state == tsDone {
			continue
		}
		fmt.Fprintf(&b, "  thread %d %q core=%d state=%v", t.id, t.name, t.cpu.id, t.state)
		if t.state == tsSpinWait && t.watchLine >= 0 {
			fmt.Fprintf(&b, " watching w%d=%d (%s)", t.watchWord, e.mem.Peek(t.watchWord), e.mem.TagOf(t.watchWord))
		}
		fmt.Fprintf(&b, "\n")
	}
	for i := range e.cpus {
		c := &e.cpus[i]
		if c.cur == nil && c.qlen() == 0 {
			continue
		}
		fmt.Fprintf(&b, "  core %d:", c.id)
		if c.cur != nil {
			fmt.Fprintf(&b, " cur=%d", c.cur.id)
		} else {
			fmt.Fprintf(&b, " idle")
		}
		if c.qlen() > 0 {
			fmt.Fprintf(&b, " runq=[")
			for j := c.head; j < len(c.runq); j++ {
				if j > c.head {
					fmt.Fprintf(&b, " ")
				}
				fmt.Fprintf(&b, "%d", c.runq[j].id)
			}
			fmt.Fprintf(&b, "]")
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "  events: %d pending\n", e.pending())
	evs := e.wheel.all(append([]event(nil), e.evq...))
	sort.Slice(evs, func(i, j int) bool { return less(evs[i], evs[j]) })
	const maxDump = 16
	for i, ev := range evs {
		if i == maxDump {
			fmt.Fprintf(&b, "    ... %d more\n", len(evs)-maxDump)
			break
		}
		fmt.Fprintf(&b, "    at=%d kind=%v", ev.at, ev.kind)
		if ev.t != nil {
			stale := ""
			if ev.t.epoch != ev.epoch {
				stale = " (stale)"
			}
			fmt.Fprintf(&b, " thread=%d%s", ev.t.id, stale)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}
