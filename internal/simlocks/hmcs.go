package simlocks

import "shfllock/internal/sim"

// hmcsThreshold bounds intra-socket passing, as in the HMCS paper.
const hmcsThreshold = 64

// HMCS node grant values: 0 = waiting, 1 = "you are the local head,
// acquire the global lock", >= 2 = lock passed directly with count v.
const (
	hmcsWait       = 0
	hmcsAcqGlobal  = 1
	hmcsFirstCount = 2
)

// HMCS is the hierarchical MCS lock (Chabbi, Fagan & Mellor-Crummey,
// PPoPP'15): an MCS lock per socket plus a global MCS lock whose queue
// nodes are the per-socket records. Local winners acquire the global lock;
// ownership then passes within the socket up to a threshold. Statically
// allocated, NUMA-aware, non-blocking; the most efficient of the
// hierarchical family but with per-socket memory and a two-level handoff.
type HMCS struct {
	e *sim.Engine

	gtail  sim.Word     // global MCS tail; values are socket+1
	gnodes [][]sim.Word // per-socket global queue node [status,next]
	ltails []sim.Word   // per-socket local MCS tails

	nodes *nodeTable
	count []uint64 // local pass count per socket (only the holder touches it)
	cnt   Counters
}

// newHMCS creates an HMCS lock; heap accounts its per-thread nodes as heap
// allocations (userspace deployment).
func newHMCS(e *sim.Engine, tag string, heap bool) *HMCS {
	socks := e.Topology().Sockets
	l := &HMCS{
		e:      e,
		gtail:  e.Mem().AllocWord(tag + "/gtail"),
		ltails: e.Mem().AllocPadded(tag+"/ltail", socks),
		count:  make([]uint64, socks),
	}
	l.gnodes = make([][]sim.Word, socks)
	for s := range l.gnodes {
		l.gnodes[s] = e.Mem().Alloc(tag+"/gnode", 2)
	}
	l.nodes = newNodeTable(e, tag, qWords, &l.cnt)
	l.nodes.heap = heap
	return l
}

// globalAcquire enqueues the socket's record on the global MCS lock.
func (l *HMCS) globalAcquire(t *sim.Thread, skt int) {
	gn := l.gnodes[skt]
	t.Store(gn[qStatus], mcsWaiting)
	t.Store(gn[qNext], 0)
	prev := t.Swap(l.gtail, uint64(skt)+1)
	if prev != 0 {
		pn := l.gnodes[prev-1]
		t.Store(pn[qNext], uint64(skt)+1)
		t.SpinUntil(gn[qStatus], func(v uint64) bool { return v == mcsGranted })
	}
}

// globalRelease hands the global lock to the next socket.
func (l *HMCS) globalRelease(t *sim.Thread, skt int) {
	gn := l.gnodes[skt]
	next := t.Load(gn[qNext])
	if next == 0 {
		if t.CAS(l.gtail, uint64(skt)+1, 0) {
			return
		}
		next = t.SpinUntil(gn[qNext], func(v uint64) bool { return v != 0 })
	}
	t.Store(l.gnodes[next-1][qStatus], mcsGranted)
}

// Lock enqueues on the socket-local MCS queue; the local head acquires the
// global lock on behalf of the socket.
func (l *HMCS) Lock(t *sim.Thread) {
	skt := t.Socket()
	n := l.nodes.get(t)
	t.Store(n[qStatus], hmcsWait)
	t.Store(n[qNext], 0)
	prev := t.Swap(l.ltails[skt], handle(t))
	if prev != 0 {
		pn := l.nodes.get(threadOf(l.e, prev))
		t.Store(pn[qNext], handle(t))
		v := t.SpinUntil(n[qStatus], func(x uint64) bool { return x != hmcsWait })
		if v == hmcsAcqGlobal {
			l.globalAcquire(t, skt)
			v = hmcsFirstCount
		}
		l.count[skt] = v
	} else {
		l.globalAcquire(t, skt)
		l.count[skt] = hmcsFirstCount
	}
	l.cnt.Acquires++
}

// Unlock passes within the socket below the threshold, else releases the
// global lock and tells the next local waiter to re-acquire it.
func (l *HMCS) Unlock(t *sim.Thread) {
	skt := t.Socket()
	n := l.nodes.get(t)
	c := l.count[skt]
	next := t.Load(n[qNext])
	if next != 0 && c < hmcsThreshold+hmcsFirstCount {
		t.Store(l.nodes.get(threadOf(l.e, next))[qStatus], c+1)
		return
	}
	l.globalRelease(t, skt)
	if next == 0 {
		if t.CAS(l.ltails[skt], handle(t), 0) {
			return
		}
		next = t.SpinUntil(n[qNext], func(v uint64) bool { return v != 0 })
	}
	t.Store(l.nodes.get(threadOf(l.e, next))[qStatus], hmcsAcqGlobal)
}

// TryLock succeeds only when both the local queue and the global lock are
// free.
func (l *HMCS) TryLock(t *sim.Thread) bool {
	skt := t.Socket()
	if t.Load(l.ltails[skt]) != 0 || t.Load(l.gtail) != 0 {
		l.cnt.TryFail++
		return false
	}
	n := l.nodes.get(t)
	t.Store(n[qStatus], hmcsWait)
	t.Store(n[qNext], 0)
	if !t.CAS(l.ltails[skt], 0, handle(t)) {
		l.cnt.TryFail++
		return false
	}
	l.globalAcquire(t, skt)
	l.count[skt] = hmcsFirstCount
	l.cnt.TrySuccess++
	l.cnt.Acquires++
	return true
}

// Stats returns the lock's counters.
func (l *HMCS) Stats() *Counters { return &l.cnt }

// HMCSMaker registers the HMCS lock.
func HMCSMaker() Maker {
	return Maker{
		Name: "hmcs",
		New:  func(e *sim.Engine, tag string) Lock { return newHMCS(e, tag, false) },
		Footprint: func(sockets int) Footprint {
			return Footprint{PerLock: 128*sockets + 16, PerWaiter: 24, PerHolder: 24}
		},
	}
}

// HMCSHeapMaker registers the userspace HMCS with heap-allocated nodes.
func HMCSHeapMaker() Maker {
	m := HMCSMaker()
	m.Name = "hmcs-heap"
	m.New = func(e *sim.Engine, tag string) Lock { return newHMCS(e, tag, true) }
	m.Footprint = func(sockets int) Footprint {
		return Footprint{PerLock: 128*sockets + 16, PerWaiter: 24, PerHolder: 24, HeapNodes: true}
	}
	return m
}
