package chaos

import (
	"fmt"
	"strings"

	"shfllock/internal/sim"
)

// Watchdog detects starvation and deadlock in a chaos run. Workers stamp a
// progress beat once per completed iteration; the watchdog thread wakes on
// an interval and, if any live worker's beat is older than the threshold,
// captures a post-mortem report (the frozen scheduler state plus the fault
// log tail) and aborts the engine instead of letting the run hang.
//
// All state is engine metadata indexed by worker id in plain slices —
// never maps — so a run's behaviour and report are deterministic.
type Watchdog struct {
	eng       *sim.Engine
	log       *Log
	interval  uint64
	threshold uint64

	beats  []uint64 // last progress stamp, indexed by worker id
	done   []bool   // workers that exited (excluded from checks)
	live   int      // workers still running
	fired  bool
	reason string
	report string

	// aux, when set, contributes extra post-mortem state at fire time (the
	// torture harness hangs the lock's policy TransitionLog here, so a hang
	// can be correlated with the transition that preceded it).
	aux func() string
}

// SetAux installs an extra post-mortem section rendered when the watchdog
// fires.
func (w *Watchdog) SetAux(f func() string) { w.aux = f }

// NewWatchdog sizes the watchdog for the given worker count. Workers must
// be spawned with ids 0..workers-1 matching their beat slot.
func NewWatchdog(e *sim.Engine, log *Log, workers int, interval, threshold uint64) *Watchdog {
	return &Watchdog{
		eng: e, log: log,
		interval: interval, threshold: threshold,
		beats: make([]uint64, workers),
		done:  make([]bool, workers),
		live:  workers,
	}
}

// Beat records progress for the calling worker.
func (w *Watchdog) Beat(t *sim.Thread, worker int) { w.beats[worker] = t.Now() }

// WorkerDone removes a finished worker from the stall checks.
func (w *Watchdog) WorkerDone(t *sim.Thread, worker int) {
	w.done[worker] = true
	w.live--
}

// Fired reports whether the watchdog aborted the run, with the reason.
func (w *Watchdog) Fired() (bool, string) { return w.fired, w.reason }

// Report returns the post-mortem captured at fire time: stall summary,
// fault-log tail, and the engine's frozen scheduler dump.
func (w *Watchdog) Report() string { return w.report }

// Run is the watchdog thread body; spawn it alongside the workers. It
// exits quietly when every worker finishes, and never returns after
// firing (Abort ends the run without resuming this thread).
func (w *Watchdog) Run(t *sim.Thread) {
	for w.live > 0 {
		t.Delay(w.interval)
		if w.live == 0 {
			return
		}
		now := t.Now()
		for id := range w.beats {
			if w.done[id] {
				continue
			}
			if age := now - w.beats[id]; age > w.threshold {
				w.fire(t, id, age)
			}
		}
	}
}

func (w *Watchdog) fire(t *sim.Thread, worker int, age uint64) {
	w.fired = true
	w.reason = fmt.Sprintf("watchdog: worker %d made no progress for %d cycles (threshold %d)",
		worker, age, w.threshold)
	w.log.add(t.Now(), t.ID(), EvWatchdog, uint64(worker))

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n", w.reason)
	b.WriteString("last progress beats:\n")
	for id, beat := range w.beats {
		state := "live"
		if w.done[id] {
			state = "done"
		}
		fmt.Fprintf(&b, "  worker %-3d %s  last beat t=%d (age %d)\n", id, state, beat, t.Now()-beat)
	}
	tail := w.log.Events
	if len(tail) > 20 {
		tail = tail[len(tail)-20:]
	}
	b.WriteString("\nfault log tail:\n")
	for _, ev := range tail {
		b.WriteString("  " + ev.line())
	}
	if w.aux != nil {
		b.WriteString("\npolicy transitions:\n")
		b.WriteString(w.aux())
	}
	b.WriteString("\n")
	b.WriteString(w.eng.Dump())
	w.report = b.String()

	w.eng.Abort()
}
