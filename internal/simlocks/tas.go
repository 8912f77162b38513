package simlocks

import "shfllock/internal/sim"

// TAS is a test-and-test-and-set spinlock: one word, one atomic in the
// uncontended case, unbounded atomics and cache-line bouncing under
// contention. This is the baseline whose collapse motivates queue locks.
type TAS struct {
	word sim.Word
	cnt  Counters
}

// Lock spins with test-and-test-and-set: read until the lock looks free,
// then CAS. Every failed CAS still bounces the line, and a release triggers
// a CAS storm among all waiters.
func (l *TAS) Lock(t *sim.Thread) {
	for {
		if t.CAS(l.word, 0, 1) {
			l.cnt.Acquires++
			return
		}
		t.SpinWhileEq(l.word, 1)
	}
}

// Unlock releases the lock with a plain store.
func (l *TAS) Unlock(t *sim.Thread) {
	t.Store(l.word, 0)
}

// TryLock attempts one CAS.
func (l *TAS) TryLock(t *sim.Thread) bool {
	if t.Load(l.word) == 0 && t.CAS(l.word, 0, 1) {
		l.cnt.TrySuccess++
		l.cnt.Acquires++
		return true
	}
	l.cnt.TryFail++
	return false
}

// Stats returns the lock's counters.
func (l *TAS) Stats() *Counters { return &l.cnt }

// TASMaker registers the TAS lock.
func TASMaker() Maker {
	return Maker{
		Name: "tas",
		New:  func(e *sim.Engine, tag string) Lock { return &TAS{word: e.Mem().AllocWord(tag)} },
		Footprint: func(int) Footprint {
			return Footprint{PerLock: 1, PerWaiter: 0, PerHolder: 0}
		},
	}
}

// Ticket is a FIFO spinlock: a single word packs the next-ticket counter in
// the high half and the now-serving counter in the low half. Fair, but all
// waiters spin on one line, so every release invalidates every waiter.
type Ticket struct {
	word sim.Word
	cnt  Counters
}

const ticketInc = 1 << 32

// Lock takes a ticket and spins until served.
func (l *Ticket) Lock(t *sim.Thread) {
	v := t.Add(l.word, ticketInc)
	my := (v >> 32) - 1
	if v&0xffffffff == my {
		l.cnt.Acquires++
		return
	}
	t.SpinUntil(l.word, func(x uint64) bool { return x&0xffffffff == my })
	l.cnt.Acquires++
}

// Unlock advances the now-serving counter.
func (l *Ticket) Unlock(t *sim.Thread) {
	t.Add(l.word, 1)
}

// TryLock succeeds only when no one holds or waits for the lock.
func (l *Ticket) TryLock(t *sim.Thread) bool {
	v := t.Load(l.word)
	if v>>32 != v&0xffffffff {
		l.cnt.TryFail++
		return false
	}
	if t.CAS(l.word, v, v+ticketInc) {
		l.cnt.TrySuccess++
		l.cnt.Acquires++
		return true
	}
	l.cnt.TryFail++
	return false
}

// Stats returns the lock's counters.
func (l *Ticket) Stats() *Counters { return &l.cnt }

// TicketMaker registers the ticket lock.
func TicketMaker() Maker {
	return Maker{
		Name: "ticket",
		New:  func(e *sim.Engine, tag string) Lock { return &Ticket{word: e.Mem().AllocWord(tag)} },
		Footprint: func(int) Footprint {
			return Footprint{PerLock: 8, PerWaiter: 0, PerHolder: 0}
		},
	}
}
