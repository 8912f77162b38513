// Package simlocks implements every lock algorithm the paper evaluates,
// written against the simulator's Thread API: TAS, TTAS, ticket, MCS, the
// Linux qspinlock, CNA, Cohort, HMCS, CST, Malthusian, MCS-TP, futex-based
// pthread mutex, Mutexee, the Linux mutex and rwsem, BRAVO, the three
// ShflLocks (non-blocking, blocking, readers-writer) and their successors
// Fissile, Hapax and Reciprocating.
//
// Each lock is exported as a Maker (or RWMaker): its name, constructor and
// Table 1 footprint. The package keeps no list of them; internal/lockreg
// is the one enumeration, holding each maker with the lock's capabilities
// (whether it blocks is stated there, as CapBlocking).
//
// All algorithms operate on simulated memory words so that the cost model
// charges them for exactly the cache-line movement their real counterparts
// cause. Queue nodes live in per-thread node tables: conceptually the
// waiter's stack (or, for userspace deployments, a heap allocation — the
// distinction is what Figure 13(b) measures).
package simlocks

import "shfllock/internal/sim"

// Lock is a mutual-exclusion lock on the simulated machine.
type Lock interface {
	// Lock acquires the lock for thread t, blocking (spinning or
	// parking, per algorithm) until it is held.
	Lock(t *sim.Thread)
	// Unlock releases the lock; the caller must hold it.
	Unlock(t *sim.Thread)
	// TryLock attempts a single non-blocking acquisition.
	TryLock(t *sim.Thread) bool
}

// RWLock is a readers-writer lock on the simulated machine.
type RWLock interface {
	RLock(t *sim.Thread)
	RUnlock(t *sim.Thread)
	Lock(t *sim.Thread)
	Unlock(t *sim.Thread)
}

// Footprint describes a lock's memory cost in bytes, mirroring Table 1.
type Footprint struct {
	PerLock   int  // the lock structure embedded in the protected object
	PerWaiter int  // queue node needed while waiting to enter the CS
	PerHolder int  // queue node retained while inside the CS
	Dynamic   bool // allocates per-socket structures at runtime (CST)
	HeapNodes bool // queue nodes must be heap-allocated in userspace use
}

// Maker constructs a lock instance bound to an engine. Tag scopes the
// memory-statistics group so experiments can attribute traffic per lock.
type Maker struct {
	Name string
	New  func(e *sim.Engine, tag string) Lock
	// Footprint on a machine with the given socket count.
	Footprint func(sockets int) Footprint
}

// RWMaker constructs a readers-writer lock instance.
type RWMaker struct {
	Name      string
	New       func(e *sim.Engine, tag string) RWLock
	Footprint func(sockets int) Footprint
}

// Counters aggregates algorithm-level statistics that experiments report.
type Counters struct {
	Acquires              uint64 // successful Lock calls
	TrySuccess            uint64
	TryFail               uint64
	Steals                uint64 // acquisitions via the TAS fast path while a queue existed
	Shuffles              uint64 // shuffling rounds executed
	ShuffleMoves          uint64 // queue nodes relocated by shufflers
	ShuffleScanned        uint64 // queue nodes examined by shufflers
	ShuffleMarked         uint64 // same-socket nodes marked (contiguous chain)
	WakeupsInCS           uint64 // wakeups issued by a lock holder inside the critical path
	WakeupsOffCS          uint64 // wakeups issued off the critical path (by shufflers/waiters)
	Parks                 uint64 // waiters that parked
	Aborts                uint64 // abortable acquisitions that gave up (LockAbort)
	Reclaims              uint64 // abandoned queue nodes unlinked by shufflers or grant walks
	DynamicAllocs         uint64 // runtime allocations (CST snode, heap queue nodes)
	DynamicAllocatedBytes uint64
}

// counterHolder lets experiments retrieve counters from any lock that keeps
// them.
type counterHolder interface{ Stats() *Counters }

// StatsOf extracts a lock's counters if the algorithm records them.
func StatsOf(l interface{}) *Counters {
	if h, ok := l.(counterHolder); ok {
		return h.Stats()
	}
	return nil
}

// nodeTable lazily hands each simulated thread a private queue node of n
// words, all on the thread's own cache line (stack allocation). When heap
// is true, the first allocation per thread charges the allocator cost and
// is counted as a dynamic allocation, modelling userspace queue locks that
// malloc their nodes (Figure 13).
type nodeTable struct {
	e     *sim.Engine
	tag   string
	words int
	nodes map[int][]sim.Word
	cnt   *Counters
	heap  bool
}

func newNodeTable(e *sim.Engine, tag string, words int, cnt *Counters) *nodeTable {
	return &nodeTable{e: e, tag: tag, words: words, nodes: make(map[int][]sim.Word), cnt: cnt}
}

// get returns thread t's node, allocating it on first use.
func (nt *nodeTable) get(t *sim.Thread) []sim.Word {
	if n, ok := nt.nodes[t.ID()]; ok {
		return n
	}
	n := nt.e.Mem().Alloc(nt.tag+"/qnode", nt.words)
	nt.nodes[t.ID()] = n
	if nt.heap && nt.cnt != nil {
		nt.cnt.DynamicAllocs++
		nt.cnt.DynamicAllocatedBytes += uint64(nt.words * 8)
	}
	return n
}

// handle encodes a queue-node owner (thread) as a non-zero word value so
// node pointers can live in simulated memory. Zero is nil.
func handle(t *sim.Thread) uint64 { return uint64(t.ID()) + 1 }

// threadOf resolves a handle back to its thread.
func threadOf(e *sim.Engine, h uint64) *sim.Thread {
	return e.Threads()[h-1]
}
