package shuffle

import (
	"sync"
	"testing"
)

// metaDriver feeds a Meta a script of observations; the tests run one
// evaluation per interval through step instead of waiting out the pin
// cadence.
type metaDriver struct {
	mu     sync.Mutex
	script []Obs
	i      int
}

func (d *metaDriver) next() Obs {
	d.mu.Lock()
	defer d.mu.Unlock()
	o := d.script[d.i]
	if d.i < len(d.script)-1 {
		d.i++
	}
	return o
}

func newTestMeta(script ...Obs) (*Meta, *metaDriver) {
	m := NewMeta()
	d := &metaDriver{script: script}
	m.SetSource(d.next)
	return m, d
}

// step runs n evaluation beats, as every metaEvalEvery-th Pin would.
func step(m *Meta, n int) {
	for i := 0; i < n; i++ {
		m.mu.Lock()
		m.evaluate()
		m.mu.Unlock()
	}
}

// calm is an interval with plenty of traffic and nothing urgent.
func calm() Obs {
	return Obs{Ops: 1000, ParkRate: 0.2, Shuffles: 100, ShuffleEff: 0.8}
}

// TestMetaDecisionLadder walks each regime trigger through the evaluation
// beat and asserts the stage the meta settles on; every interval repeats, so
// the governor's settle count is met.
func TestMetaDecisionLadder(t *testing.T) {
	cases := []struct {
		name  string
		obs   Obs
		stage string
	}{
		{"calm-holds-numa", calm(), "numa"},
		{"abort-storm-to-base",
			Obs{Ops: 1000, Aborts: 400, AbortFrac: 0.4, ParkRate: 0.2}, "ablation-base"},
		{"low-eff-to-base",
			Obs{Ops: 1000, ParkRate: 0.3, Shuffles: 100, ShuffleEff: 0.01}, "ablation-base"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, _ := newTestMeta(tc.obs)
			step(m, 4)
			if got := m.Pin().Name(); got != tc.stage {
				t.Fatalf("settled on %q, want %q\nlog:\n%s", got, tc.stage, m.Log().String())
			}
		})
	}
}

// TestMetaRecovery: ablation-base is not a trap — once park and abort
// pressure calm down the meta returns to numa, and the round trip is two
// recorded transitions past the boot install.
func TestMetaRecovery(t *testing.T) {
	m, d := newTestMeta(Obs{Ops: 1000, Aborts: 400, AbortFrac: 0.4, ParkRate: 0.2})
	step(m, 4)
	if got := m.Pin().Name(); got != "ablation-base" {
		t.Fatalf("storm did not reach ablation-base (at %q)", got)
	}
	d.mu.Lock()
	d.script = []Obs{{Ops: 1000, ParkRate: 0.001, AbortFrac: 0.01}}
	d.i = 0
	d.mu.Unlock()
	step(m, 4)
	if got := m.Pin().Name(); got != "numa" {
		t.Fatalf("calm did not recover to numa (at %q)", got)
	}
	if m.Epoch() != 3 { // init -> storm -> recovery
		t.Fatalf("epoch %d after boot+storm+recovery, want 3\nlog:\n%s", m.Epoch(), m.Log().String())
	}
}

// TestMetaHysteresis: a single urgent interval must not switch (the
// governor settles at 2); the second consecutive one does. An interval that votes "stay"
// in between resets the streak.
func TestMetaHysteresis(t *testing.T) {
	storm := Obs{Ops: 1000, Aborts: 400, AbortFrac: 0.4, ParkRate: 0.2}

	m, _ := newTestMeta(storm, calm(), storm, calm())
	step(m, 4)
	if got := m.Pin().Name(); got != "numa" {
		t.Fatalf("interleaved storm intervals switched the stage to %q; settle=2 requires consecutive votes", got)
	}

	m, _ = newTestMeta(storm, storm, storm)
	step(m, 4)
	if got := m.Pin().Name(); got != "ablation-base" {
		t.Fatalf("two consecutive storm intervals settled on %q, want ablation-base", got)
	}
}

// TestMetaMinOpsFloor: quiet intervals are not judged — they neither switch
// the stage nor keep a leaning streak alive.
func TestMetaMinOpsFloor(t *testing.T) {
	quietStorm := Obs{Ops: 10, Aborts: 9, AbortFrac: 0.9}
	m, _ := newTestMeta(quietStorm)
	step(m, 8)
	if got := m.Pin().Name(); got != "numa" {
		t.Fatalf("a %d-op interval switched the stage to %q; the min-ops floor is 32", quietStorm.Ops, got)
	}
	if m.Epoch() != 1 {
		t.Fatalf("epoch moved to %d on sub-floor intervals", m.Epoch())
	}
}

// TestMetaAbortFloor: the absolute MinAborts floor keeps one unlucky
// timeout on a busy lock from reading as a storm.
func TestMetaAbortFloor(t *testing.T) {
	m, _ := newTestMeta(Obs{Ops: 100, Aborts: 4, AbortFrac: 0.3, ParkRate: 0.2, Shuffles: 100, ShuffleEff: 0.8})
	step(m, 4)
	if got := m.Pin().Name(); got != "numa" {
		t.Fatalf("4 aborts switched the stage to %q; MinAborts floor is 8", got)
	}
}

// TestMetaTransitionsRecorded: stage switches land in the meta's log with
// the meta:<signal> trigger, so post-mortems can tell self-tuning from api
// and chaos transitions; the pin heartbeat alone drives the evaluation.
func TestMetaTransitionsRecorded(t *testing.T) {
	m, _ := newTestMeta(Obs{Ops: 1000, Aborts: 400, AbortFrac: 0.4})
	m.SetClock(func() uint64 { return 99 })
	// Through Pin this time: every metaEvalEvery-th pin is a beat.
	for i := 0; i < 2*metaEvalEvery; i++ {
		m.Pin()
	}
	tail := m.Log().Tail(1)
	if len(tail) != 1 {
		t.Fatal("no transition recorded")
	}
	tr := tail[0]
	if tr.Trigger != "meta:abort-storm" || tr.From != "numa" || tr.To != "ablation-base" || tr.At != 99 {
		t.Fatalf("recorded %+v, want numa->ablation-base (meta:abort-storm) at 99", tr)
	}
}
