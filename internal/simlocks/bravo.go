package simlocks

import "shfllock/internal/sim"

// bravoSlots is the size of the visible-readers table. Real BRAVO uses a
// process-global 4K-entry table; the simulator gives each wrapped lock its
// own table (accounted in the footprint) with the same hashing behaviour.
const bravoSlots = 64

// bravoInhibit is how long read bias stays disabled after a revocation,
// in cycles (BRAVO uses a multiple of the measured revocation cost).
const bravoInhibit = 1_000_000

// Bravo wraps any readers-writer lock with BRAVO's biased-reader fast path
// (Dice & Kogan, ATC'19): while reads are biased, a reader only plants a
// flag in a hashed slot of a visible-readers table (usually an uncontended
// line) instead of bouncing the shared reader indicator. A writer revokes
// the bias by scanning the whole table and waiting for planted readers to
// leave.
type Bravo struct {
	under    RWLock
	rbias    sim.Word
	slots    []sim.Word
	inhibit  uint64 // virtual time before which rbias stays off
	usedSlot map[int]sim.Word
	cnt      Counters
}

// Stats returns the wrapper's counters.
func (l *Bravo) Stats() *Counters { return &l.cnt }

func (l *Bravo) slot(t *sim.Thread) sim.Word {
	return l.slots[(t.ID()*31)%bravoSlots]
}

// RLock tries the biased fast path, falling back to the underlying lock.
func (l *Bravo) RLock(t *sim.Thread) {
	if t.Load(l.rbias) == 1 {
		s := l.slot(t)
		if t.CAS(s, 0, uint64(t.ID())+1) {
			if t.Load(l.rbias) == 1 {
				l.usedSlot[t.ID()] = s
				return // fast biased read
			}
			t.Store(s, 0) // bias revoked mid-flight: undo
		}
	}
	l.under.RLock(t)
	// Consider re-enabling bias after the inhibition window.
	if t.Now() > l.inhibit && t.Load(l.rbias) == 0 {
		t.CAS(l.rbias, 0, 1)
	}
}

// RUnlock clears the slot for biased readers, else unlocks the underlying
// lock.
func (l *Bravo) RUnlock(t *sim.Thread) {
	if s, ok := l.usedSlot[t.ID()]; ok {
		delete(l.usedSlot, t.ID())
		t.Store(s, 0)
		return
	}
	l.under.RUnlock(t)
}

// Lock acquires the underlying writer lock and revokes read bias, scanning
// the visible-readers table — the cost writers pay for cheap reads.
func (l *Bravo) Lock(t *sim.Thread) {
	l.under.Lock(t)
	if t.Load(l.rbias) == 1 {
		t.Store(l.rbias, 0)
		for _, s := range l.slots {
			for {
				v := t.Load(s)
				if v == 0 {
					break
				}
				t.WatchWait(s, v)
			}
		}
		l.inhibit = t.Now() + bravoInhibit
	}
	l.cnt.Acquires++
}

// Unlock releases the underlying writer lock.
func (l *Bravo) Unlock(t *sim.Thread) {
	l.under.Unlock(t)
}

// BravoMaker wraps an RWMaker with BRAVO.
func BravoMaker(inner RWMaker) RWMaker {
	return RWMaker{
		Name: inner.Name + "+bravo",
		New: func(e *sim.Engine, tag string) RWLock {
			b := &Bravo{
				under:    inner.New(e, tag),
				rbias:    e.Mem().AllocWord(tag + "/bravo/rbias"),
				slots:    e.Mem().AllocPadded(tag+"/bravo/slots", bravoSlots),
				usedSlot: make(map[int]sim.Word),
			}
			e.Mem().Poke(b.rbias, 1)
			return b
		},
		Footprint: func(sockets int) Footprint {
			f := inner.Footprint(sockets)
			f.PerLock += bravoSlots*128 + 8
			return f
		},
	}
}
