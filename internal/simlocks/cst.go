package simlocks

import (
	"shfllock/internal/alloc"
	"shfllock/internal/sim"
)

// CST status values: the HMCS grant scheme plus a parked marker.
const (
	cstWait      = 0
	cstAcqGlobal = 1
	cstFirst     = 2
	cstParked    = 1 << 32
	cstNext      = 1 << 33 // pre-woken: the lock is near, keep spinning
	cstThreshold = 64
)

// cstSnodeBytes is the dynamically allocated per-socket structure size
// (queue node for the global lock, local tail, parking list head).
const cstSnodeBytes = 128

// CST is the NUMA-aware blocking lock of Kashyap et al. (ATC'17):
// hierarchical like HMCS, but blocking (waiters park under
// over-subscription) and with per-socket structures allocated *dynamically*
// the first time a socket touches the lock. That laziness keeps untouched
// sockets free, but for short-lived locks (such as inodes created in a
// burst) the allocation lands on the lock's critical path — the collapse
// Figure 9(a) shows.
type CST struct {
	e  *sim.Engine
	al *alloc.Allocator

	gtail  sim.Word
	snodes [][]sim.Word // lazily allocated: [gstatus, gnext, ltail]
	nodes  *nodeTable
	count  []uint64
	tag    string
	cnt    Counters
}

// Per-socket snode field offsets.
const (
	cstGStatus = 0
	cstGNext   = 1
	cstLTail   = 2
	cstGOwner  = 3 // thread handle of the parked socket leader
)

// newCST creates a CST lock. The allocator models the kernel slab the
// per-socket structures come from; the first socket's structure is
// allocated eagerly, the rest on first use.
func newCST(e *sim.Engine, al *alloc.Allocator, tag string) *CST {
	socks := e.Topology().Sockets
	l := &CST{
		e: e, al: al,
		gtail:  e.Mem().AllocWord(tag + "/gtail"),
		snodes: make([][]sim.Word, socks),
		count:  make([]uint64, socks),
		tag:    tag,
	}
	l.nodes = newNodeTable(e, tag, qWords, &l.cnt)
	return l
}

// snode returns the socket's structure, allocating it on first use; the
// allocation is charged to the calling thread, on its lock-acquire path.
func (l *CST) snode(t *sim.Thread, skt int) []sim.Word {
	if l.snodes[skt] == nil {
		// Install before charging the allocation: charging suspends the
		// thread, and a same-socket sibling arriving meanwhile must see
		// this structure, not race to install its own (the real CST
		// CASes the pointer and the loser frees its copy).
		l.snodes[skt] = l.e.Mem().Alloc(l.tag+"/snode", 4)
		l.cnt.DynamicAllocs++
		l.cnt.DynamicAllocatedBytes += cstSnodeBytes
		if l.al != nil {
			l.al.Alloc(t, cstSnodeBytes)
		}
	}
	return l.snodes[skt]
}

func (l *CST) globalAcquire(t *sim.Thread, skt int, sn []sim.Word) {
	t.Store(sn[cstGStatus], mcsWaiting)
	t.Store(sn[cstGNext], 0)
	prev := t.Swap(l.gtail, uint64(skt)+1)
	if prev == 0 {
		return
	}
	pn := l.snode(t, int(prev-1))
	t.Store(pn[cstGNext], uint64(skt)+1)
	// CST is blocking at both levels: a socket leader parks when the
	// core is over-subscribed instead of burning its quantum.
	for {
		v := t.Load(sn[cstGStatus])
		if v == mcsGranted {
			return
		}
		if v == mcsWaiting && t.NeedResched() && t.NrRunning() > 1 {
			t.Store(sn[cstGOwner], handle(t))
			if t.CAS(sn[cstGStatus], mcsWaiting, cstParked) {
				l.cnt.Parks++
				t.Park()
			}
			continue
		}
		t.WatchWait(sn[cstGStatus], v)
	}
}

func (l *CST) globalRelease(t *sim.Thread, skt int, sn []sim.Word) {
	next := t.Load(sn[cstGNext])
	if next == 0 {
		if t.CAS(l.gtail, uint64(skt)+1, 0) {
			return
		}
		next = t.SpinUntil(sn[cstGNext], func(v uint64) bool { return v != 0 })
	}
	nsn := l.snode(t, int(next-1))
	if old := t.Swap(nsn[cstGStatus], mcsGranted); old == cstParked {
		l.cnt.WakeupsInCS++
		t.Unpark(threadOf(l.e, l.e.Mem().Peek(nsn[cstGOwner])))
	}
}

// Lock enqueues locally (parking when over-subscribed); the local head
// acquires the global lock for the socket.
func (l *CST) Lock(t *sim.Thread) {
	skt := t.Socket()
	sn := l.snode(t, skt)
	n := l.nodes.get(t)
	t.Store(n[qStatus], cstWait)
	t.Store(n[qNext], 0)
	prev := t.Swap(sn[cstLTail], handle(t))
	if prev != 0 {
		pn := l.nodes.get(threadOf(l.e, prev))
		t.Store(pn[qNext], handle(t))
		v := l.waitLocal(t, n)
		if v == cstAcqGlobal {
			l.globalAcquire(t, skt, sn)
			v = cstFirst
		}
		l.count[skt] = v
	} else {
		l.globalAcquire(t, skt, sn)
		l.count[skt] = cstFirst
	}
	// CST's wakeup strategy: bring the next local waiter back on CPU
	// ahead of the handoff so the grant does not pay the wake latency.
	if nx := t.Load(n[qNext]); nx != 0 {
		st := l.nodes.get(threadOf(l.e, nx))[qStatus]
		if t.CAS(st, cstWait, cstNext) {
			l.cnt.WakeupsOffCS++
		} else if t.CAS(st, cstParked, cstNext) {
			l.cnt.WakeupsOffCS++
			t.Unpark(threadOf(l.e, nx))
		}
	}
	l.cnt.Acquires++
}

// waitLocal spins on the local node with CST's scheduling-aware parking:
// park only when the core is over-subscribed, otherwise yield.
func (l *CST) waitLocal(t *sim.Thread, n []sim.Word) uint64 {
	for {
		v := t.Load(n[qStatus])
		if v != cstWait && v != cstParked && v != cstNext {
			return v
		}
		if v == cstWait && t.NeedResched() {
			if t.NrRunning() > 1 {
				if t.CAS(n[qStatus], cstWait, cstParked) {
					l.cnt.Parks++
					t.Park()
				}
				continue
			}
			t.Yield()
			continue
		}
		t.WatchWait(n[qStatus], v)
	}
}

// grant hands the local lock to a waiter, waking it if parked. The wakeup
// is on the releasing thread's path — one of CST's costs next to ShflLock,
// whose shufflers wake waiters ahead of time.
func (l *CST) grant(t *sim.Thread, h uint64, v uint64) {
	st := l.nodes.get(threadOf(l.e, h))[qStatus]
	if old := t.Swap(st, v); old == cstParked {
		l.cnt.WakeupsInCS++
		t.Unpark(threadOf(l.e, h))
	}
}

// Unlock passes within the socket below the threshold, else releases the
// global lock first.
func (l *CST) Unlock(t *sim.Thread) {
	skt := t.Socket()
	sn := l.snode(t, skt)
	n := l.nodes.get(t)
	c := l.count[skt]
	next := t.Load(n[qNext])
	if next != 0 && c < cstThreshold+cstFirst {
		l.grant(t, next, c+1)
		return
	}
	l.globalRelease(t, skt, sn)
	if next == 0 {
		if t.CAS(sn[cstLTail], handle(t), 0) {
			return
		}
		next = t.SpinUntil(n[qNext], func(v uint64) bool { return v != 0 })
	}
	l.grant(t, next, cstAcqGlobal)
}

// TryLock succeeds only when the whole hierarchy is free.
func (l *CST) TryLock(t *sim.Thread) bool {
	skt := t.Socket()
	sn := l.snode(t, skt)
	if t.Load(sn[cstLTail]) != 0 || t.Load(l.gtail) != 0 {
		l.cnt.TryFail++
		return false
	}
	n := l.nodes.get(t)
	t.Store(n[qStatus], cstWait)
	t.Store(n[qNext], 0)
	if !t.CAS(sn[cstLTail], 0, handle(t)) {
		l.cnt.TryFail++
		return false
	}
	l.globalAcquire(t, skt, sn)
	l.count[skt] = cstFirst
	l.cnt.TrySuccess++
	l.cnt.Acquires++
	return true
}

// Stats returns the lock's counters.
func (l *CST) Stats() *Counters { return &l.cnt }

// allocatorPerEngine returns a lookup that hands out exactly one slab
// allocator per engine instance. The allocator is stored in the engine's
// assoc table (under a token unique to this maker), not in a maker-side map
// keyed by *Engine: engines are pooled across sweep points, so a recycled
// pointer would hit a previous run's allocator — whose bump state indexes
// the torn-down memory image — and silently alias fresh locks over stale
// words. Engine-scoped storage also needs no lock (one thread runs at a
// time per engine) and cannot thrash between concurrently running engines.
func allocatorPerEngine() func(*sim.Engine) *alloc.Allocator {
	key := new(int) // distinct assoc key per maker
	return func(e *sim.Engine) *alloc.Allocator {
		if al, ok := e.Assoc(key).(*alloc.Allocator); ok {
			return al
		}
		al := alloc.New(e)
		e.SetAssoc(key, al)
		return al
	}
}

// CSTMaker registers the CST lock. The maker allocates a fresh slab
// allocator per engine on demand.
func CSTMaker() Maker {
	allocFor := allocatorPerEngine()
	return Maker{
		Name: "cst",
		New: func(e *sim.Engine, tag string) Lock {
			return newCST(e, allocFor(e), tag)
		},
		Footprint: func(sockets int) Footprint {
			return Footprint{PerLock: cstSnodeBytes*sockets + 32, PerWaiter: 24, PerHolder: 0, Dynamic: true}
		},
	}
}
