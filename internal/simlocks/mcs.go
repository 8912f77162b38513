package simlocks

import "shfllock/internal/sim"

// Queue-node field offsets shared by the MCS-family locks.
const (
	qStatus = iota // spin word: granted/waiting (+ richer states in ShflLock)
	qNext          // successor handle (0 = none)
	qWords
)

// MCS node status values.
const (
	mcsWaiting = 0
	mcsGranted = 1
)

// MCS is the classic Mellor-Crummey & Scott queue lock: waiters join a
// global tail pointer and each spins on its own queue node, so handoff
// costs a single cache-line transfer. FIFO and NUMA-oblivious: the lock
// and the critical-section data ping-pong between sockets in queue order.
//
// When heapNodes is set, queue nodes are accounted as heap allocations, the
// way an LD_PRELOAD userspace deployment must allocate them (Figure 13).
type MCS struct {
	tail  sim.Word
	nodes *nodeTable
	cnt   Counters
}

// newMCS creates an MCS lock; heap accounts its per-thread queue nodes as
// heap allocations (userspace deployment).
func newMCS(e *sim.Engine, tag string, heap bool) *MCS {
	l := &MCS{tail: e.Mem().AllocWord(tag)}
	l.nodes = newNodeTable(e, tag, qWords, &l.cnt)
	l.nodes.heap = heap
	return l
}

// Lock enqueues the caller and spins on its private node.
func (l *MCS) Lock(t *sim.Thread) {
	n := l.nodes.get(t)
	t.Store(n[qStatus], mcsWaiting)
	t.Store(n[qNext], 0)
	prev := t.Swap(l.tail, handle(t))
	if prev != 0 {
		pn := l.nodes.get(threadOf(t.Engine(), prev))
		t.Store(pn[qNext], handle(t))
		t.SpinUntil(n[qStatus], func(v uint64) bool { return v == mcsGranted })
	}
	l.cnt.Acquires++
}

// Unlock hands the lock to the successor, or resets the tail.
func (l *MCS) Unlock(t *sim.Thread) {
	n := l.nodes.get(t)
	next := t.Load(n[qNext])
	if next == 0 {
		if t.CAS(l.tail, handle(t), 0) {
			return
		}
		next = t.SpinUntil(n[qNext], func(v uint64) bool { return v != 0 })
	}
	sn := l.nodes.get(threadOf(t.Engine(), next))
	t.Store(sn[qStatus], mcsGranted)
}

// TryLock succeeds only if the queue is empty.
func (l *MCS) TryLock(t *sim.Thread) bool {
	n := l.nodes.get(t)
	t.Store(n[qStatus], mcsWaiting)
	t.Store(n[qNext], 0)
	if t.Load(l.tail) == 0 && t.CAS(l.tail, 0, handle(t)) {
		l.cnt.TrySuccess++
		l.cnt.Acquires++
		return true
	}
	l.cnt.TryFail++
	return false
}

// Stats returns the lock's counters.
func (l *MCS) Stats() *Counters { return &l.cnt }

// MCSMaker registers the MCS lock (kernel-style stack nodes).
func MCSMaker() Maker {
	return Maker{
		Name: "mcs",
		New:  func(e *sim.Engine, tag string) Lock { return newMCS(e, tag, false) },
		Footprint: func(int) Footprint {
			return Footprint{PerLock: 8, PerWaiter: 12, PerHolder: 12}
		},
	}
}

// MCSHeapMaker registers the userspace MCS variant with heap queue nodes.
func MCSHeapMaker() Maker {
	m := MCSMaker()
	m.Name = "mcs-heap"
	m.New = func(e *sim.Engine, tag string) Lock { return newMCS(e, tag, true) }
	m.Footprint = func(int) Footprint {
		return Footprint{PerLock: 8, PerWaiter: 12, PerHolder: 12, HeapNodes: true}
	}
	return m
}
