package sim

// Injector receives fault-injection queries from inside the engine's
// primitives and the lock substrates. The queries run in thread context —
// exactly one thread executes at a time — so an implementation drawing from
// a seeded random source stays deterministic: the same seed replays the
// same fault schedule. A nil injector (the default) turns every hook into a
// single branch.
//
// Injector decisions are engine metadata: they must not touch simulated
// memory. Their observable effect is only through the scheduling they force
// (a yield, a timer wake), which the cost model charges normally.
type Injector interface {
	// SpuriousWakeDelay is consulted when t commits to park. A non-zero
	// return arms a timer wake that many cycles later without an unpark
	// permit — the simulator's futex spurious wakeup. Park's callers
	// re-check their condition, so the wake costs one loop iteration.
	SpuriousWakeDelay(t *Thread) uint64
	// ShufflerPreempt is consulted by lock substrates at the point a
	// shuffling round consumes the shuffler role; true forces the thread to
	// yield the CPU first, modelling the shuffler being descheduled at its
	// most load-bearing moment.
	ShufflerPreempt(t *Thread) bool
	// PolicyFlip is consulted by lock substrates at the transition-
	// adversarial moments (FlipMoment): a non-empty return names the
	// shuffle policy the lock must switch to, right there, through its
	// transition API. The injector returns a name rather than a policy so
	// the sim package stays independent of internal/shuffle.
	PolicyFlip(t *Thread, m FlipMoment) string
}

// FlipMoment classifies where a forced policy transition lands: the three
// instants where a swap interacts with in-flight queue surgery.
type FlipMoment uint8

const (
	// FlipMidShuffle fires as a shuffling round consumes the role — the
	// walk is about to run under its pinned policy while the box changes.
	FlipMidShuffle FlipMoment = iota
	// FlipAbortReclaim fires as an abandoned node is unlinked (by a scan
	// or by the grant walk).
	FlipAbortReclaim
	// FlipHeadAbdication fires as a timed-out queue head abdicates via the
	// grant walk without taking the lock.
	FlipHeadAbdication
)

func (m FlipMoment) String() string {
	switch m {
	case FlipMidShuffle:
		return "mid-shuffle"
	case FlipAbortReclaim:
		return "abort-reclaim"
	case FlipHeadAbdication:
		return "head-abdication"
	}
	return "unknown"
}

// SetInjector installs a fault injector. Install before Run.
func (e *Engine) SetInjector(i Injector) { e.injector = i }

// Injector returns the installed fault injector, or nil.
func (e *Engine) Injector() Injector { return e.injector }

// Abort ends the run from inside the running thread: it raises the stop
// flag and yields nil to the hub, so Run returns at once and every other
// thread stays suspended where it stands. Abort never returns: the calling
// thread's coroutine is never resumed.
// This is the escape hatch for watchdogs that detect a deadlock or
// starvation the simulation would otherwise hang on — the frozen state is
// exactly what Dump then reports.
func (e *Engine) Abort() {
	e.stopped = true
	e.running.yield(nil)
	panic("sim: aborted thread resumed")
}

// Dump renders the scheduler state — live threads, per-core run queues,
// pending events — for watchdog reports and tooling. Deterministic for a
// given schedule.
func (e *Engine) Dump() string { return e.dump() }
