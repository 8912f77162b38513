package shuffle

import (
	"sync"
	"sync/atomic"
)

// Meta is the self-tuning meta-policy ("auto" in the registry): a composite
// policy that watches its own lock's lockstat interval diffs and switches
// between the concrete stages numa and ablation-base through the same
// Governor the kvserver controller uses to switch lock families, but one
// layer down, so any core or simlocks lock can self-tune without a
// controller process.
//
// Meta is a Pinner: every walk calls Pin exactly once and runs entirely
// under the returned stage, so a stage switch is an ordinary epoched
// transition (recorded in the Meta's own TransitionLog) and can never tear
// a round. Evaluation happens inside Pin on a pin-count cadence — there is
// no background goroutine, which keeps the simulator deterministic: the
// same acquisition sequence evaluates at the same points every run.

// Obs is one interval observation: the signals Meta decides on, extracted
// from a lockstat interval diff by the observer (see lockstat.MetaSource).
type Obs struct {
	// Ops counts acquisition attempts this interval (acquires + aborts);
	// below metaMinOps the interval is ignored.
	Ops uint64
	// Aborts and AbortFrac describe timeout pressure.
	Aborts    uint64
	AbortFrac float64
	// ParkRate is parks per attempt: zero means waiters never blocked, so
	// wakeup-efficiency signals carry no information.
	ParkRate float64
	// Shuffles counts shuffling rounds; ShuffleEff is grouped wakes per
	// round (lockstat.Diff's precomputed ratio).
	Shuffles   uint64
	ShuffleEff float64
}

// MetaSource produces the next interval observation. The observer owns the
// previous-snapshot state; Meta just calls it on its evaluation cadence.
// On the simulator the source must read only engine metadata (counters),
// never simulated memory, and must not consult wall clocks.
type MetaSource func() Obs

// The decision ladder's thresholds. The settle count and the absolute
// abort floor live in governor.go, shared with the kvserver controller.
const (
	// metaEvalEvery is the pin-count cadence between evaluations:
	// evaluation cost and reaction latency trade off here.
	metaEvalEvery = 256
	// metaMinOps ignores intervals with fewer attempts.
	metaMinOps = 32
	// metaHiAbort enters the abort-storm regime (see Storm);
	// metaLoAbort is the calm threshold for leaving it.
	metaHiAbort = 0.25
	metaLoAbort = 0.05
	// metaLoEff/metaMinShuffles flee to ablation-base when shuffling ran
	// but grouped almost no wakes.
	metaLoEff       = 0.05
	metaMinShuffles = 16
	// metaLoPark is the park rate under which ablation-base returns home:
	// at base no shuffling runs, so efficiency is unmeasurable and park
	// pressure is the recovery signal.
	metaLoPark = 0.01
)

// Meta implements Policy and Pinner. The unpinned Policy methods delegate
// to the current stage one call at a time — safe but tearable, so every
// lock-layer call site pins first; the delegation exists only so a Meta is
// a valid Policy wherever one is accepted.
type Meta struct {
	box  PolicyBox // current stage; its log is the meta's transition record
	pins atomic.Uint64

	mu  sync.Mutex // serializes evaluation and guards src/now/gov
	src MetaSource
	now func() uint64
	gov Governor
}

// NewMeta builds a self-tuning policy starting at the numa stage. Attach an
// observation source with SetSource; without one it behaves exactly like
// NUMA() forever.
func NewMeta() *Meta {
	m := &Meta{}
	m.box.Set(NUMA(), "init", 0)
	return m
}

// SetSource installs the interval observer. Call before the owning lock
// sees traffic, or accept that a few early evaluations are skipped.
func (m *Meta) SetSource(src MetaSource) {
	m.mu.Lock()
	m.src = src
	m.mu.Unlock()
}

// SetClock installs the timestamp source for recorded transitions: engine
// virtual time on the simulator, wall-clock nanoseconds natively. Without
// one, transitions are stamped 0.
func (m *Meta) SetClock(now func() uint64) {
	m.mu.Lock()
	m.now = now
	m.mu.Unlock()
}

// Pin returns the stage for exactly one walk, and is the evaluation
// heartbeat: every metaEvalEvery-th pin runs the decision ladder. TryLock
// keeps concurrent pinners from stacking up behind an evaluation — losing a
// beat is harmless, blocking a shuffler is not.
func (m *Meta) Pin() Policy {
	n := m.pins.Add(1)
	if n%metaEvalEvery == 0 && m.mu.TryLock() {
		m.evaluate()
		m.mu.Unlock()
	}
	return m.stage()
}

func (m *Meta) stage() Policy {
	if p := m.box.Get(); p != nil {
		return p
	}
	return NUMA()
}

// Epoch returns the stage fence value (monotone).
func (m *Meta) Epoch() uint64 { return m.box.Epoch() }

// Log exposes the stage-switch record for post-mortems and debug surfaces.
func (m *Meta) Log() *TransitionLog { return m.box.Log() }

// evaluate runs one decision with m.mu held.
func (m *Meta) evaluate() {
	if m.src == nil {
		return
	}
	o := m.src()
	want, why := m.decide(o)
	if !m.gov.Vote(o.Ops, metaMinOps, want, m.stage().Name()) {
		return
	}
	var at uint64
	if m.now != nil {
		at = m.now()
	}
	m.box.Set(ByName(want), "meta:"+why, at)
}

// decide is the ladder, most urgent regime first. Recovery needs no extra
// rules: when nothing urgent holds, the answer is the home stage (numa),
// so ablation-base drains back once its trigger clears.
func (m *Meta) decide(o Obs) (want, why string) {
	cur := m.stage().Name()
	if Storm(o.Aborts, o.AbortFrac, metaHiAbort) {
		// Abort storms: every reclaim is queue surgery; stop shuffling and
		// let the grant walk do the minimum (the Fissile lesson — switch
		// regimes rather than tune the doomed one).
		return "ablation-base", "abort-storm"
	}
	if cur == "ablation-base" {
		// No shuffling runs at base, so efficiency is unmeasurable here;
		// recover on calm park/abort pressure instead.
		if o.ParkRate <= metaLoPark && o.AbortFrac <= metaLoAbort {
			return "numa", "calm"
		}
		return cur, "hold"
	}
	if o.ParkRate > 0 && o.Shuffles >= metaMinShuffles && o.ShuffleEff <= metaLoEff {
		return "ablation-base", "low-shuffle-eff"
	}
	return "numa", "calm"
}

// Policy delegation: one atomic stage read per call. Lock-layer call sites
// never use these directly — they Pin first.
func (m *Meta) Name() string                   { return "auto" }
func (m *Meta) Shuffles() bool                 { return m.stage().Shuffles() }
func (m *Meta) PassRole() bool                 { return m.stage().PassRole() }
func (m *Meta) UseHint() bool                  { return m.stage().UseHint() }
func (m *Meta) Budget() uint64                 { return m.stage().Budget() }
func (m *Meta) Match(c Ctx) bool               { return m.stage().Match(c) }
func (m *Meta) WakeGrouped(blocking bool) bool { return m.stage().WakeGrouped(blocking) }

func init() {
	RegisterFactory("auto", func() Policy { return NewMeta() })
}
