package sim

import (
	"fmt"
	"math/rand"

	"shfllock/internal/memsim"
)

// tstate is a thread's scheduler state.
type tstate uint8

const (
	tsReady      tstate = iota // runnable, waiting on its core's run queue
	tsDispatched               // picked by the dispatcher, resume event pending
	tsRunning                  // holds the CPU (possibly sleeping inside charge)
	tsSpinWait                 // holds the CPU, blocked on a watched cache line
	tsParked                   // descheduled, waiting for Unpark
	tsWaking                   // unparked, wake latency elapsing
	tsDone
)

func (s tstate) String() string {
	switch s {
	case tsReady:
		return "ready"
	case tsDispatched:
		return "dispatched"
	case tsRunning:
		return "running"
	case tsSpinWait:
		return "spinwait"
	case tsParked:
		return "parked"
	case tsWaking:
		return "waking"
	case tsDone:
		return "done"
	}
	return "?"
}

// Thread is a simulated thread. All methods must be called from within the
// thread's own function; the engine guarantees only one thread executes at
// a time, so Thread methods may freely mutate engine state.
//
// Field order is a cache-line budget (pinned by TestThreadLayout): the
// fields every charge/handoff/watch step touches fill the first 64 bytes
// exactly, so the hot path reads one line per thread; the identity fields
// and the rng, touched only at spawn, rand draws and stats rendering, sit
// on the second line.
type Thread struct {
	// Hot line (64 bytes).
	eng *Engine
	cpu *cpu
	// yield suspends the thread's coroutine and passes the named thread
	// (nil to end the run) to the hub loop in Engine.Run.
	yield       func(*Thread) bool
	quantumLeft int64
	// Spin-wait bookkeeping.
	spinStart   uint64
	spinQuantum int64
	watchLine   int32
	watchWord   Word
	// epoch invalidates queued events when the thread changes state; uint32
	// matches event.epoch and cannot wrap within a run (see event).
	epoch       uint32
	state       tstate
	needResched bool
	// Park/unpark permit (futex-style saturation to one token).
	permit bool

	// Cold fields.
	rng  *rand.Rand
	id   int
	name string
}

// ID returns the thread's index in spawn order.
func (t *Thread) ID() int { return t.id }

// Name returns the thread's debug name.
func (t *Thread) Name() string { return t.name }

// Core returns the core the thread is pinned to.
func (t *Thread) Core() int { return t.cpu.id }

// Socket returns the NUMA socket of the thread's core.
func (t *Thread) Socket() int { return t.cpu.socket }

// Engine returns the owning engine.
func (t *Thread) Engine() *Engine { return t.eng }

// Now returns the current virtual time.
func (t *Thread) Now() uint64 { return t.eng.now }

// Rng returns the thread's private deterministic random source.
func (t *Thread) Rng() *rand.Rand { return t.rng }

// Stopped reports whether the engine's stop flag has been raised.
func (t *Thread) Stopped() bool { return t.eng.stopped }

// NeedResched reports whether the thread has exhausted its scheduling
// quantum — the simulator's analogue of the kernel's need_resched().
func (t *Thread) NeedResched() bool { return t.needResched || t.quantumLeft <= 0 }

// NrRunning returns the number of runnable tasks on the thread's core,
// including itself — the signal CST-style locks use to detect
// over-subscription.
func (t *Thread) NrRunning() int { return 1 + t.cpu.qlen() }

// block gives up the CPU: the thread's own coroutine runs the event loop
// until control is handed to some thread. If that thread is someone else,
// yield it to the hub and wait here to be resumed; if it is the caller
// itself (its own resume or preempt event was next), just keep running.
func (t *Thread) block() {
	if next := t.eng.schedule(t); next != t {
		t.yield(next)
	}
}

func (t *Thread) checkRunning() {
	if t.eng.running != t {
		panic(fmt.Sprintf("sim: thread %d %q used while not running", t.id, t.name))
	}
}

// graceCycles is how long a thread may keep running after its quantum
// expires before it is forcibly descheduled. It models the kernel's
// preemption latency: need_resched is raised first, giving spinning code a
// chance to park or yield voluntarily at its next scheduling check.
const graceCycles = 30_000

// charge consumes CPU time, handling quantum expiry: needResched is raised
// at the quantum boundary, and if other threads wait on this core the
// thread is preempted round-robin once the grace window is exhausted.
//
// Fast path: when the event queue proves no other event can fire inside
// the step, the clock advances in place and the thread keeps the CPU — no
// event, no coroutine switch. This is the engine's
// hottest edge (every simulated memory access lands here).
func (t *Thread) charge(cost uint64) {
	t.checkRunning()
	e := t.eng
	for cost > 0 {
		if t.quantumLeft <= 0 {
			t.needResched = true
			if t.cpu.qlen() == 0 {
				// Sole runnable task: keep the CPU with a fresh quantum,
				// but leave needResched raised so scheduling-aware locks
				// still observe the expiry.
				t.quantumLeft = int64(e.costs.Quantum)
			} else if t.quantumLeft <= -graceCycles {
				t.resched()
				continue
			}
		}
		avail := t.quantumLeft
		if avail <= 0 {
			avail = t.quantumLeft + graceCycles // remaining grace
		}
		step := cost
		if step > uint64(avail) {
			step = uint64(avail)
		}
		t.quantumLeft -= int64(step)
		if e.fastCovers(step) {
			e.paths.FastResumes++
			e.fastAdvance(step)
		} else {
			e.push(event{at: e.now + step, kind: evResume, t: t, epoch: t.epoch})
			t.block()
		}
		cost -= step
	}
}

// tryHandoff hands the CPU straight to the next thread on the caller's run
// queue, from the caller's own coroutine, when the queue-top invariant
// allows charging the context switch in place. The caller must already
// have descheduled itself (state set, epoch bumped, enqueued if it stays
// runnable). Returns the dispatched thread — which may be the caller
// itself, in which case control simply continues — or nil when the slow
// path must run.
func (t *Thread) tryHandoff() *Thread {
	e := t.eng
	c := t.cpu
	if c.qlen() == 0 || !e.fastCovers(e.costs.CtxSwitch) {
		return nil
	}
	e.paths.FastHandoffs++
	e.fastAdvance(e.costs.CtxSwitch)
	next := c.dispatchFast(e)
	// The epoch bump and state change transfer() would have applied when
	// the dispatch event fired.
	next.epoch++
	next.state = tsRunning
	e.running = next
	if next != t {
		// Yield the target to the hub, then wait for our own next
		// dispatch — no event pushed, no heap traffic.
		t.yield(next)
	}
	return next
}

// resched puts the thread at the back of its core's run queue and blocks
// until it is dispatched again.
func (t *Thread) resched() {
	e := t.eng
	e.Preemptions++
	t.state = tsReady
	t.epoch++
	t.cpu.enqueue(t)
	e.CtxSwitches++
	if t.tryHandoff() != nil {
		return
	}
	t.cpu.dispatchNext(e)
	t.block()
}

// Delay consumes the given number of cycles of CPU time; it models
// computation (critical-section work, think time) that does not touch
// simulated shared memory.
func (t *Thread) Delay(cycles uint64) {
	if cycles > 0 {
		t.charge(cycles)
	}
}

// Yield voluntarily releases the CPU to the next runnable thread on this
// core (sched_yield). With an empty run queue it just refreshes the quantum.
func (t *Thread) Yield() {
	e := t.eng
	e.YieldCount++
	t.charge(e.costs.CtxSwitch)
	t.needResched = false
	if t.cpu.qlen() == 0 {
		t.quantumLeft = int64(e.costs.Quantum)
		return
	}
	t.resched()
}

// Park deschedules the thread until another thread calls Unpark on it.
// A pending permit (Unpark that arrived before Park) is consumed without
// blocking, so the pair is immune to lost wakeups.
func (t *Thread) Park() {
	e := t.eng
	e.ParkCount++
	if t.permit {
		t.permit = false
		return
	}
	t.charge(e.costs.ParkCost)
	if t.permit { // an Unpark arrived while we were descheduling
		t.permit = false
		return
	}
	t.state = tsParked
	t.epoch++
	t.needResched = false
	if inj := e.injector; inj != nil {
		if d := inj.SpuriousWakeDelay(t); d > 0 {
			e.push(event{at: e.now + d, kind: evTimerWake, t: t, epoch: t.epoch})
		}
	}
	e.CtxSwitches++
	if t.tryHandoff() == nil {
		t.cpu.dispatchNext(e)
		t.block()
	}
}

// ParkTimeout parks like Park but additionally wakes after at most the
// given number of cycles (futex wait with a timeout). The caller cannot
// distinguish a timeout from a wakeup — like Park, returns may be spurious
// and the surrounding loop must re-check its condition.
func (t *Thread) ParkTimeout(cycles uint64) {
	e := t.eng
	e.ParkCount++
	if t.permit {
		t.permit = false
		return
	}
	t.charge(e.costs.ParkCost)
	if t.permit { // an Unpark arrived while we were descheduling
		t.permit = false
		return
	}
	t.state = tsParked
	t.epoch++
	t.needResched = false
	e.push(event{at: e.now + cycles, kind: evTimerWake, t: t, epoch: t.epoch})
	if inj := e.injector; inj != nil {
		if d := inj.SpuriousWakeDelay(t); d > 0 && d < cycles {
			e.push(event{at: e.now + d, kind: evTimerWake, t: t, epoch: t.epoch})
		}
	}
	e.CtxSwitches++
	if t.tryHandoff() == nil {
		t.cpu.dispatchNext(e)
		t.block()
	}
}

// Unpark makes o runnable after the wakeup latency, or deposits a permit if
// o is not parked. The cost of issuing the wakeup is charged to the caller.
func (t *Thread) Unpark(o *Thread) {
	e := t.eng
	e.UnparkCount++
	t.charge(e.costs.WakeCost)
	if o.state == tsParked {
		o.state = tsWaking
		o.epoch++
		e.push(event{at: e.now + e.costs.WakeLatency, kind: evWake, t: o, epoch: o.epoch})
		return
	}
	o.permit = true
}

// --- Simulated memory operations -----------------------------------------

// Load performs an atomic 64-bit load.
func (t *Thread) Load(w Word) uint64 {
	t.charge(t.eng.mem.Access(t.eng.now, t.cpu.id, w, memsim.AccessLoad))
	return t.eng.mem.Get(w)
}

// Store performs an atomic 64-bit store.
func (t *Thread) Store(w Word, v uint64) {
	t.charge(t.eng.mem.Access(t.eng.now, t.cpu.id, w, memsim.AccessStore))
	t.eng.mem.Set(w, v)
	t.eng.mem.NotifyWrite(w)
}

// StorePartial stores val into the bits selected by mask, leaving the rest
// of the word untouched. It models a byte- or halfword-sized plain store
// (e.g. writing only the locked byte of a combined lock word) and is
// charged as a store, not an atomic RMW.
func (t *Thread) StorePartial(w Word, mask, val uint64) {
	t.charge(t.eng.mem.Access(t.eng.now, t.cpu.id, w, memsim.AccessStore))
	old := t.eng.mem.Get(w)
	t.eng.mem.Set(w, (old&^mask)|(val&mask))
	t.eng.mem.NotifyWrite(w)
}

// OnCPU reports whether the thread currently occupies its core — the
// simulator's analogue of the kernel's owner->on_cpu test used by
// optimistic-spinning mutexes.
func (t *Thread) OnCPU() bool { return t.cpu.cur == t }

// CAS performs an atomic compare-and-swap, returning whether it succeeded.
// Like real hardware, a failed CAS still pulls the cache line exclusive.
func (t *Thread) CAS(w Word, old, new uint64) bool {
	t.charge(t.eng.mem.Access(t.eng.now, t.cpu.id, w, memsim.AccessRMW))
	if t.eng.mem.Get(w) != old {
		return false
	}
	t.eng.mem.Set(w, new)
	t.eng.mem.NotifyWrite(w)
	return true
}

// Swap atomically exchanges the word's value, returning the previous value.
func (t *Thread) Swap(w Word, v uint64) uint64 {
	t.charge(t.eng.mem.Access(t.eng.now, t.cpu.id, w, memsim.AccessRMW))
	old := t.eng.mem.Get(w)
	t.eng.mem.Set(w, v)
	t.eng.mem.NotifyWrite(w)
	return old
}

// Add atomically adds delta (two's complement; pass ^uint64(0) for -1) and
// returns the new value.
func (t *Thread) Add(w Word, delta uint64) uint64 {
	t.charge(t.eng.mem.Access(t.eng.now, t.cpu.id, w, memsim.AccessRMW))
	v := t.eng.mem.Get(w) + delta
	t.eng.mem.Set(w, v)
	t.eng.mem.NotifyWrite(w)
	return v
}

// FetchOr atomically ORs bits into the word, returning the previous value.
func (t *Thread) FetchOr(w Word, bits uint64) uint64 {
	t.charge(t.eng.mem.Access(t.eng.now, t.cpu.id, w, memsim.AccessRMW))
	old := t.eng.mem.Get(w)
	t.eng.mem.Set(w, old|bits)
	t.eng.mem.NotifyWrite(w)
	return old
}

// FetchAnd atomically ANDs the word with mask, returning the previous value.
func (t *Thread) FetchAnd(w Word, mask uint64) uint64 {
	t.charge(t.eng.mem.Access(t.eng.now, t.cpu.id, w, memsim.AccessRMW))
	old := t.eng.mem.Get(w)
	t.eng.mem.Set(w, old&mask)
	t.eng.mem.NotifyWrite(w)
	return old
}

// --- Spin-wait primitives --------------------------------------------------

// WatchWait blocks the thread — still occupying its CPU, exactly like a
// busy-wait loop — until the cache line holding w is written by another
// core, or until the thread is preempted because its quantum expired while
// other threads were waiting on the core. Callers must re-check their
// condition after WatchWait returns (wakeups can be spurious).
//
// seen is the value of w the caller last observed; if the word changed
// while the caller was being charged for earlier operations, WatchWait
// returns immediately instead of sleeping through the missed notification.
func (t *Thread) WatchWait(w Word, seen uint64) {
	t.checkRunning()
	e := t.eng
	if e.mem.Peek(w) != seen {
		return // the word changed between the caller's load and now
	}
	if t.NeedResched() && t.cpu.qlen() > 0 {
		t.resched()
		return
	}
	line := e.mem.LineOf(w)
	e.mem.Watch(w)
	t.watchLine = line
	t.watchWord = w
	e.addWatcher(line, t)
	t.state = tsSpinWait
	t.epoch++
	t.spinStart = e.now
	t.spinQuantum = t.quantumLeft
	if t.cpu.qlen() > 0 {
		e.schedulePreempt(t)
	}
	t.block()
}

// detachWatch drops the thread's registration on its watched line. Called
// by the engine when the thread leaves the spin-wait state.
func (t *Thread) detachWatch() {
	if t.watchLine >= 0 {
		t.eng.mem.Unwatch(t.watchWord)
		t.watchLine = -1
	}
}

// SpinUntil busy-waits until pred holds for the value of w, charging spin
// time against the scheduling quantum, and returns the satisfying value.
func (t *Thread) SpinUntil(w Word, pred func(uint64) bool) uint64 {
	for {
		v := t.Load(w)
		if pred(v) {
			return v
		}
		t.WatchWait(w, v)
	}
}

// SpinWhileEq busy-waits while the word equals v, returning the first
// different value.
func (t *Thread) SpinWhileEq(w Word, v uint64) uint64 {
	return t.SpinUntil(w, func(x uint64) bool { return x != v })
}
