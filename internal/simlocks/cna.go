package simlocks

import "shfllock/internal/sim"

// CNA queue-node fields (extends the MCS node).
const (
	cnaStatus = iota // grant word; encodes the secondary-queue head
	cnaNext
	cnaSocket
	cnaSecHead // holder's record of the secondary queue head
	cnaSecTail // valid on the secondary head's node: the secondary tail
	cnaWords
)

// CNA is the Compact NUMA-Aware lock (Dice & Kogan, EuroSys'19): an MCS
// lock in which the *lock holder*, at release time, scans the main queue
// for a waiter on its own socket, moving skipped remote waiters onto a
// secondary queue. Periodically the secondary queue is flushed back for
// long-term fairness.
//
// The contrast with ShflLock is intentional and visible in the simulator:
// the queue scan happens on the critical path (the holder walks remote
// nodes' cache lines while everyone waits), and the holder must retain its
// queue node across the critical section.
type CNA struct {
	tail     sim.Word
	nodes    *nodeTable
	handoffs int // deterministic fairness flush counter
	cnt      Counters
}

// cnaFlushPeriod forces a secondary-queue flush every N handoffs,
// mirroring CNA's low-probability flush for long-term fairness.
const cnaFlushPeriod = 256

// cnaGrant encodes a lock grant carrying the secondary-queue head.
func cnaGrant(secHead uint64) uint64 { return secHead<<16 | 1 }

// newCNA creates a CNA lock; heap accounts its queue nodes as heap
// allocations (userspace deployment, Figure 13).
func newCNA(e *sim.Engine, tag string, heap bool) *CNA {
	l := &CNA{tail: e.Mem().AllocWord(tag)}
	l.nodes = newNodeTable(e, tag, cnaWords, &l.cnt)
	l.nodes.heap = heap
	return l
}

// Lock enqueues like MCS; a granted waiter inherits the secondary queue
// from its predecessor through the grant word.
func (l *CNA) Lock(t *sim.Thread) {
	n := l.nodes.get(t)
	t.Store(n[cnaStatus], 0)
	t.Store(n[cnaNext], 0)
	t.Store(n[cnaSocket], uint64(t.Socket()))
	t.Store(n[cnaSecHead], 0)
	prev := t.Swap(l.tail, handle(t))
	if prev != 0 {
		pn := l.nodes.get(threadOf(t.Engine(), prev))
		t.Store(pn[cnaNext], handle(t))
		v := t.SpinUntil(n[cnaStatus], func(x uint64) bool { return x != 0 })
		t.Store(n[cnaSecHead], v>>16)
	}
	l.cnt.Acquires++
}

// Unlock finds a same-socket successor (off-loading skipped waiters to the
// secondary queue) and hands the lock over; every cnaFlushPeriod handoffs
// the secondary queue is flushed to preserve long-term fairness.
func (l *CNA) Unlock(t *sim.Thread) {
	e := t.Engine()
	n := l.nodes.get(t)
	secHead := t.Load(n[cnaSecHead])
	next := t.Load(n[cnaNext])
	if next == 0 {
		if secHead != 0 {
			// Main queue looks empty: promote the secondary queue.
			secTail := t.Load(l.nodes.get(threadOf(e, secHead))[cnaSecTail])
			if t.CAS(l.tail, handle(t), secTail) {
				t.Store(l.nodes.get(threadOf(e, secHead))[cnaStatus], cnaGrant(0))
				return
			}
			next = t.SpinUntil(n[cnaNext], func(x uint64) bool { return x != 0 })
		} else {
			if t.CAS(l.tail, handle(t), 0) {
				return
			}
			next = t.SpinUntil(n[cnaNext], func(x uint64) bool { return x != 0 })
		}
	}

	l.handoffs++
	if l.handoffs%cnaFlushPeriod == 0 && secHead != 0 {
		l.flush(t, secHead, next)
		return
	}

	// Scan the main queue for a waiter on our socket. This walk is the
	// cost CNA pays on the critical path.
	mySkt := uint64(t.Socket())
	prevH := uint64(0)
	cur := next
	for cur != 0 {
		cn := l.nodes.get(threadOf(e, cur))
		if t.Load(cn[cnaSocket]) == mySkt {
			break
		}
		if cur == t.Load(l.tail) {
			cur = 0 // reached the tail without a local waiter
			break
		}
		nxt := t.Load(cn[cnaNext])
		if nxt == 0 {
			cur = 0 // successor still enqueueing; give up the scan
			break
		}
		prevH = cur
		cur = nxt
	}

	switch {
	case cur == next:
		// Immediate successor is local: pass lock and secondary as-is.
		t.Store(l.nodes.get(threadOf(e, next))[cnaStatus], cnaGrant(secHead))
	case cur != 0:
		// Detach [next..prevH] onto the secondary queue, grant cur.
		pn := l.nodes.get(threadOf(e, prevH))
		t.Store(pn[cnaNext], 0)
		if secHead == 0 {
			secHead = next
			t.Store(l.nodes.get(threadOf(e, next))[cnaSecTail], prevH)
		} else {
			sh := l.nodes.get(threadOf(e, secHead))
			oldTail := t.Load(sh[cnaSecTail])
			t.Store(l.nodes.get(threadOf(e, oldTail))[cnaNext], next)
			t.Store(sh[cnaSecTail], prevH)
		}
		l.cnt.ShuffleMoves++
		t.Store(l.nodes.get(threadOf(e, cur))[cnaStatus], cnaGrant(secHead))
	default:
		// No local waiter: flush the secondary queue if any, else pass on.
		if secHead != 0 {
			l.flush(t, secHead, next)
		} else {
			t.Store(l.nodes.get(threadOf(e, next))[cnaStatus], cnaGrant(0))
		}
	}
}

// flush links the main queue after the secondary queue and grants the
// secondary head.
func (l *CNA) flush(t *sim.Thread, secHead, next uint64) {
	e := t.Engine()
	sh := l.nodes.get(threadOf(e, secHead))
	secTail := t.Load(sh[cnaSecTail])
	t.Store(l.nodes.get(threadOf(e, secTail))[cnaNext], next)
	t.Store(sh[cnaStatus], cnaGrant(0))
}

// TryLock succeeds only on an empty queue.
func (l *CNA) TryLock(t *sim.Thread) bool {
	n := l.nodes.get(t)
	t.Store(n[cnaStatus], 0)
	t.Store(n[cnaNext], 0)
	t.Store(n[cnaSocket], uint64(t.Socket()))
	t.Store(n[cnaSecHead], 0)
	if t.Load(l.tail) == 0 && t.CAS(l.tail, 0, handle(t)) {
		l.cnt.TrySuccess++
		l.cnt.Acquires++
		return true
	}
	l.cnt.TryFail++
	return false
}

// Stats returns the lock's counters.
func (l *CNA) Stats() *Counters { return &l.cnt }

// CNAMaker registers the CNA lock.
func CNAMaker() Maker {
	return Maker{
		Name: "cna",
		New:  func(e *sim.Engine, tag string) Lock { return newCNA(e, tag, false) },
		Footprint: func(int) Footprint {
			return Footprint{PerLock: 8, PerWaiter: 28, PerHolder: 28}
		},
	}
}

// CNAHeapMaker registers the userspace CNA variant with heap queue nodes.
func CNAHeapMaker() Maker {
	m := CNAMaker()
	m.Name = "cna-heap"
	m.New = func(e *sim.Engine, tag string) Lock { return newCNA(e, tag, true) }
	m.Footprint = func(int) Footprint {
		return Footprint{PerLock: 8, PerWaiter: 28, PerHolder: 28, HeapNodes: true}
	}
	return m
}
