package simlocks

import "shfllock/internal/sim"

// Fissile is the Fissile Lock of Dice & Kogan (arXiv:2003.05025): a
// test-and-set fast path "fissioned" over an MCS outer lock. Arriving
// threads take one shot at the inner TS word; on failure they enqueue on
// the outer MCS lock, and only the outer holder — the "alpha" waiter —
// spins on the inner word. The alpha releases the outer lock as soon as it
// wins the inner one, so the critical section is protected by the inner
// word alone and the holder carries no queue node (lock-state decoupling,
// like ShflLock). The inner word stays open for barging, which keeps the
// uncontended path at one CAS, while the outer queue bounds the number of
// threads hammering the inner line to one.
type Fissile struct {
	inner sim.Word
	outer *MCS
	cnt   Counters
}

// Lock tries the inner word once, then acquires the outer MCS lock and
// spins on the inner word as the sole alpha contender.
func (l *Fissile) Lock(t *sim.Thread) {
	if t.Load(l.inner) == 0 && t.CAS(l.inner, 0, 1) {
		if t.Load(l.outer.tail) != 0 {
			l.cnt.Steals++
		}
		l.cnt.Acquires++
		return
	}
	l.outer.Lock(t)
	for {
		if t.Load(l.inner) == 0 && t.CAS(l.inner, 0, 1) {
			break
		}
		t.SpinWhileEq(l.inner, 1)
	}
	l.outer.Unlock(t)
	l.cnt.Acquires++
}

// Unlock releases the inner word; the outer lock was already released on
// the acquire side.
func (l *Fissile) Unlock(t *sim.Thread) {
	t.Store(l.inner, 0)
}

// TryLock is one CAS on the inner word — it may barge past the outer
// queue, which is the fast path working as designed.
func (l *Fissile) TryLock(t *sim.Thread) bool {
	if t.Load(l.inner) == 0 && t.CAS(l.inner, 0, 1) {
		if t.Load(l.outer.tail) != 0 {
			l.cnt.Steals++
		}
		l.cnt.TrySuccess++
		l.cnt.Acquires++
		return true
	}
	l.cnt.TryFail++
	return false
}

// Stats returns the lock's counters.
func (l *Fissile) Stats() *Counters { return &l.cnt }

// FissileMaker registers the Fissile lock.
func FissileMaker() Maker {
	return Maker{
		Name: "fissile",
		New: func(e *sim.Engine, tag string) Lock {
			return &Fissile{inner: e.Mem().AllocWord(tag), outer: newMCS(e, tag, false)}
		},
		Footprint: func(int) Footprint {
			// 1-byte inner TS word + 8-byte outer tail; waiters hold an MCS
			// node, the holder holds nothing (released before the CS).
			return Footprint{PerLock: 9, PerWaiter: 12, PerHolder: 0}
		},
	}
}
