package simlocks

import "shfllock/internal/sim"

// Reciprocating queue-node field offsets.
const (
	rGate = iota // grant flag: 1 = you hold the lock
	rNext        // LIFO push chain: the node pushed just before this one
	rSeg         // written by the granter: this segment's stop boundary
	recipWords
)

// recipHeld is the sentinel value swapped into the arrivals word when a
// holder detaches a segment: "the lock is held and no arrivals since the
// detach". It is a value, not a node — it is only ever compared, never
// dereferenced — so it costs the lock nothing.
const recipHeld = ^uint64(0)

// Recip is the Reciprocating Lock of Dice & Kogan (arXiv:2501.02380): a
// single-word lock whose waiters push themselves onto a LIFO arrivals
// stack (one swap, constant time, no spinning on the arrival path). When
// the holder's current admission segment runs dry, it detaches the whole
// arrivals stack with one swap and serves it top-first — i.e. in the
// *reverse* of arrival order. Consecutive segments therefore alternate
// direction relative to arrival ("reciprocating", palindromic admission),
// which bounds bypass: a waiter is overtaken only by threads that arrived
// within its own segment window, at most once, so worst-case delay is
// bounded at 2N-1 entries while the common path stays as cheap as a TAS.
//
// Within a segment the lock is handed node-to-node along the push chain
// (each node's rNext points at the previously pushed node, which is next
// in service order), so handoff is local spinning like MCS. The holder
// keeps its node through the critical section: a node's rNext is only read
// by its own owner at unlock, and boundary values (rSeg, chain bottoms)
// are compared but never dereferenced, which is what makes per-thread node
// reuse safe with no reclamation protocol.
type Recip struct {
	arr   sim.Word
	nodes *nodeTable
	cnt   Counters
}

func (l *Recip) node(t *sim.Thread, h uint64) []sim.Word {
	return l.nodes.get(threadOf(t.Engine(), h))
}

// Lock pushes the caller onto the arrivals stack with one swap. A zero
// predecessor means the lock was free ("era start"); otherwise the caller
// spins on its own gate until a holder serves its segment.
func (l *Recip) Lock(t *sim.Thread) {
	n := l.nodes.get(t)
	t.Store(n[rGate], 0)
	prev := t.Swap(l.arr, handle(t))
	t.Store(n[rNext], prev)
	if prev == 0 {
		// Era start: empty segment; rSeg == 0 also marks us as the era
		// starter, whose release expectation is its own handle.
		t.Store(n[rSeg], 0)
		l.cnt.Acquires++
		return
	}
	t.SpinUntil(n[rGate], func(v uint64) bool { return v == 1 })
	l.cnt.Acquires++
}

// Unlock grants the next node of the current segment, or — segment
// exhausted — releases the lock, or detaches the arrivals stack as the
// next segment and grants its top (the most recent arrival).
func (l *Recip) Unlock(t *sim.Thread) {
	n := l.nodes.get(t)
	h := handle(t)
	stop := t.Load(n[rSeg])
	// home is the value the arrivals word held when this sub-era began:
	// the era starter's own handle, or the recipHeld sentinel after any
	// detach. rSeg == 0 identifies the era starter (granted holders always
	// receive a non-zero boundary).
	home := recipHeld
	if stop == 0 {
		home, stop = h, 0
	}
	next := t.Load(n[rNext])
	if next != stop {
		// Serve the segment: our push-chain predecessor is next in the
		// reversed order. Pass the boundary along, then open its gate.
		sn := l.node(t, next)
		t.Store(sn[rSeg], stop)
		t.Store(sn[rGate], 1)
		return
	}
	if t.CAS(l.arr, home, 0) {
		return // no arrivals since home was installed: lock is free
	}
	// New arrivals piled up: detach them as the next segment and grant the
	// top. The chain bottoms out at a node whose rNext equals home, which
	// becomes the new segment's stop boundary.
	top := t.Swap(l.arr, recipHeld)
	tn := l.node(t, top)
	t.Store(tn[rSeg], home)
	t.Store(tn[rGate], 1)
}

// TryLock is a single CAS from the free state (becoming the era starter).
func (l *Recip) TryLock(t *sim.Thread) bool {
	n := l.nodes.get(t)
	if t.Load(l.arr) != 0 {
		l.cnt.TryFail++
		return false
	}
	if t.CAS(l.arr, 0, handle(t)) {
		t.Store(n[rNext], 0)
		t.Store(n[rSeg], 0)
		l.cnt.TrySuccess++
		l.cnt.Acquires++
		return true
	}
	l.cnt.TryFail++
	return false
}

// Stats returns the lock's counters.
func (l *Recip) Stats() *Counters { return &l.cnt }

// RecipMaker registers the Reciprocating lock.
func RecipMaker() Maker {
	return Maker{
		Name: "reciprocating",
		New: func(e *sim.Engine, tag string) Lock {
			l := &Recip{arr: e.Mem().AllocWord(tag)}
			l.nodes = newNodeTable(e, tag, recipWords, &l.cnt)
			return l
		},
		Footprint: func(int) Footprint {
			// One arrivals word per lock (the held sentinel is a value, not
			// memory); waiters hold a 3-word node and keep it through the
			// critical section.
			return Footprint{PerLock: 8, PerWaiter: 24, PerHolder: 24}
		},
	}
}
