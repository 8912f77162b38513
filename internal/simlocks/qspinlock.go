package simlocks

import "shfllock/internal/sim"

// QSpinLock models the stock Linux qspinlock ("Stock" in Figure 8): a TAS
// byte in the fast path and an MCS queue in the slow path, with the queue
// head spinning on the lock word itself. It is FIFO once queued and
// NUMA-oblivious: consecutive holders come from arbitrary sockets, so the
// lock word and critical-section data keep crossing the interconnect.
//
// Lock word layout: bit0 = locked, bit8 = pending. The tail lives in a
// second word on the same cache line (the real qspinlock packs it into the
// same 4-byte word; sharing the line reproduces the same interference).
type QSpinLock struct {
	glock sim.Word
	tail  sim.Word
	nodes *nodeTable
	cnt   Counters
}

const (
	qslLocked  = 1
	qslPending = 1 << 8
)

// Lock implements fast path (uncontended CAS), pending midpath (first
// waiter spins on the lock word) and MCS slow path (further waiters queue).
func (l *QSpinLock) Lock(t *sim.Thread) {
	// Fast path.
	if t.CAS(l.glock, 0, qslLocked) {
		l.cnt.Acquires++
		return
	}
	// Pending midpath: if there is no queue and no pending waiter, become
	// the pending waiter and spin for the locked bit.
	v := t.Load(l.glock)
	if v == qslLocked && t.Load(l.tail) == 0 {
		if t.CAS(l.glock, qslLocked, qslLocked|qslPending) {
			t.SpinUntil(l.glock, func(x uint64) bool { return x&qslLocked == 0 })
			// Clear pending, set locked.
			for {
				x := t.Load(l.glock)
				if t.CAS(l.glock, x, (x&^uint64(qslPending))|qslLocked) {
					l.cnt.Acquires++
					return
				}
			}
		}
	}
	// Slow path: MCS queue.
	n := l.nodes.get(t)
	t.Store(n[qStatus], mcsWaiting)
	t.Store(n[qNext], 0)
	prev := t.Swap(l.tail, handle(t))
	if prev != 0 {
		pn := l.nodes.get(threadOf(t.Engine(), prev))
		t.Store(pn[qNext], handle(t))
		t.SpinUntil(n[qStatus], func(x uint64) bool { return x == mcsGranted })
	}
	// Head of queue: wait for locked+pending to clear, then take the lock.
	for {
		x := t.Load(l.glock)
		if x&(qslLocked|qslPending) == 0 && t.CAS(l.glock, x, x|qslLocked) {
			break
		}
		t.WatchWait(l.glock, x)
	}
	// Dequeue: hand head role to successor or reset the tail.
	next := t.Load(n[qNext])
	if next == 0 {
		if !t.CAS(l.tail, handle(t), 0) {
			next = t.SpinUntil(n[qNext], func(x uint64) bool { return x != 0 })
		}
	}
	if next != 0 {
		sn := l.nodes.get(threadOf(t.Engine(), next))
		t.Store(sn[qStatus], mcsGranted)
	}
	l.cnt.Acquires++
}

// Unlock clears the locked byte.
func (l *QSpinLock) Unlock(t *sim.Thread) {
	t.StorePartial(l.glock, 0xff, 0)
}

// TryLock attempts the fast path once.
func (l *QSpinLock) TryLock(t *sim.Thread) bool {
	if t.Load(l.glock) == 0 && t.CAS(l.glock, 0, qslLocked) {
		l.cnt.TrySuccess++
		l.cnt.Acquires++
		return true
	}
	l.cnt.TryFail++
	return false
}

// Stats returns the lock's counters.
func (l *QSpinLock) Stats() *Counters { return &l.cnt }

// QSpinLockMaker registers the stock Linux qspinlock.
func QSpinLockMaker() Maker {
	return Maker{
		Name: "stock-qspinlock",
		New: func(e *sim.Engine, tag string) Lock {
			ws := e.Mem().Alloc(tag, 2)
			l := &QSpinLock{glock: ws[0], tail: ws[1]}
			l.nodes = newNodeTable(e, tag, qWords, &l.cnt)
			return l
		},
		Footprint: func(int) Footprint {
			// 4 bytes in the kernel; per-CPU MCS nodes are preallocated,
			// charged here as the waiter node.
			return Footprint{PerLock: 4, PerWaiter: 16, PerHolder: 0}
		},
	}
}
