package simlocks

import "shfllock/internal/sim"

// Hapax queue-node field offsets: a single mailbox word per thread.
const (
	hpxMailbox = iota
	hpxWords
)

// Hapax is a value-based queue lock in the spirit of Dice & Kogan's Hapax
// Lock (arXiv:2511.14608): the lock is one tail word holding a value that
// is unique per acquisition ("hapax legomenon" — used exactly once), and
// both the arrival and unlock paths run in constant time with no waiting
// loops on the arrival side.
//
// Arrival swaps the tail to its own fresh value; a zero predecessor means
// the lock was free, otherwise the arriver spins on the predecessor
// thread's mailbox until the predecessor's value appears there. Unlock
// CASes the tail from the holder's value back to zero; if that fails a
// successor exists, and the holder publishes its value into its own
// mailbox, which is exactly what the successor is waiting to read. Because
// values are never reused, a stale mailbox left over from an earlier
// acquisition can never be mistaken for the current grant — that is the
// whole trick, and what makes per-thread mailbox reuse safe with no
// generation counters or node reclamation protocol.
//
// FIFO by construction (strict arrival order), one word per lock, one word
// per waiting thread.
type Hapax struct {
	tail  sim.Word
	nodes *nodeTable
	// seq and cur are per-thread acquisition metadata (the sequence counter
	// and the value of the in-flight acquisition). In a real implementation
	// these live in registers/TLS, so they are engine-side Go state here,
	// not charged simulated memory.
	seq map[int]uint64
	cur map[int]uint64
	cnt Counters
}

// value mints a fresh, never-reused value for thread t: the thread handle
// in the high half, a per-thread sequence number in the low half.
func (l *Hapax) value(t *sim.Thread) uint64 {
	l.seq[t.ID()]++
	v := handle(t)<<32 | l.seq[t.ID()]
	l.cur[t.ID()] = v
	return v
}

// Lock swaps in a unique value and, if a predecessor exists, spins on the
// predecessor's mailbox until that exact value is published.
func (l *Hapax) Lock(t *sim.Thread) {
	l.nodes.get(t) // allocate our mailbox before anyone can wait on it
	v := l.value(t)
	prev := t.Swap(l.tail, v)
	if prev != 0 {
		pn := l.nodes.get(threadOf(t.Engine(), prev>>32))
		t.SpinUntil(pn[hpxMailbox], func(x uint64) bool { return x == prev })
	}
	l.cnt.Acquires++
}

// Unlock CASes the tail back to zero; on failure a successor is waiting on
// our mailbox, so publish our value there.
func (l *Hapax) Unlock(t *sim.Thread) {
	v := l.cur[t.ID()]
	if t.CAS(l.tail, v, 0) {
		return
	}
	n := l.nodes.get(t)
	t.Store(n[hpxMailbox], v)
}

// TryLock is a single CAS from the free state.
func (l *Hapax) TryLock(t *sim.Thread) bool {
	l.nodes.get(t)
	if t.Load(l.tail) != 0 {
		l.cnt.TryFail++
		return false
	}
	v := l.value(t)
	if t.CAS(l.tail, 0, v) {
		l.cnt.TrySuccess++
		l.cnt.Acquires++
		return true
	}
	l.cnt.TryFail++
	return false
}

// Stats returns the lock's counters.
func (l *Hapax) Stats() *Counters { return &l.cnt }

// HapaxMaker registers the Hapax lock.
func HapaxMaker() Maker {
	return Maker{
		Name: "hapax",
		New: func(e *sim.Engine, tag string) Lock {
			l := &Hapax{
				tail: e.Mem().AllocWord(tag),
				seq:  make(map[int]uint64),
				cur:  make(map[int]uint64),
			}
			l.nodes = newNodeTable(e, tag, hpxWords, &l.cnt)
			return l
		},
		Footprint: func(int) Footprint {
			// One tail word per lock, one mailbox word per waiting thread;
			// the holder retains only its value (a register), no memory.
			return Footprint{PerLock: 8, PerWaiter: 8, PerHolder: 0}
		},
	}
}
