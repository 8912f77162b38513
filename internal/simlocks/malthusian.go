package simlocks

import "shfllock/internal/sim"

// Malthusian node status values.
const (
	malWaiting  = 0
	malGranted  = 1
	malCulled   = 2 // moved to the passive list; sleep until promoted
	malPromoted = 3 // re-join the queue
)

// malPromotePeriod: promote one passive waiter every N handoffs for
// long-term fairness.
const malPromotePeriod = 64

// Malthusian is Dice's Malthusian lock: an MCS lock whose holder culls
// surplus waiters into a passive LIFO list, putting them to sleep so that
// only a small active set spins. Culling concentrates the lock among few
// threads (good throughput under over-subscription, poor short-term
// fairness); passive waiters are promoted periodically.
type Malthusian struct {
	e       *sim.Engine
	tail    sim.Word
	nodes   *nodeTable
	passive []uint64 // LIFO of culled waiter handles
	ops     int
	cnt     Counters
}

// Lock joins the MCS queue; a culled waiter sleeps on the passive list and
// re-enqueues when promoted.
func (l *Malthusian) Lock(t *sim.Thread) {
	for {
		n := l.nodes.get(t)
		t.Store(n[qStatus], malWaiting)
		t.Store(n[qNext], 0)
		prev := t.Swap(l.tail, handle(t))
		if prev == 0 {
			l.cnt.Acquires++
			return
		}
		pn := l.nodes.get(threadOf(l.e, prev))
		t.Store(pn[qNext], handle(t))
		rejoin := false
		for {
			v := t.Load(n[qStatus])
			if v == malGranted {
				l.cnt.Acquires++
				return
			}
			if v == malCulled {
				l.cnt.Parks++
				t.Park()
				continue
			}
			if v == malPromoted {
				rejoin = true
				break
			}
			t.WatchWait(n[qStatus], v)
		}
		if rejoin {
			continue
		}
	}
}

// Unlock culls the second waiter in line (if safely unlinkable) onto the
// passive list, promotes a passive waiter periodically, then passes the
// lock MCS-style.
func (l *Malthusian) Unlock(t *sim.Thread) {
	n := l.nodes.get(t)
	l.ops++

	next := t.Load(n[qNext])
	if next != 0 {
		// Cull: detach next.next while it is fully linked and not the tail.
		nn := l.nodes.get(threadOf(l.e, next))
		cull := t.Load(nn[qNext])
		if cull != 0 && cull != t.Load(l.tail) {
			cn := l.nodes.get(threadOf(l.e, cull))
			cnext := t.Load(cn[qNext])
			if cnext != 0 {
				t.Store(nn[qNext], cnext)
				l.passive = append(l.passive, cull)
				t.Store(cn[qStatus], malCulled)
				l.cnt.ShuffleMoves++ // reuse: nodes relocated off the queue
			}
		}
	}

	// Periodic promotion for long-term fairness.
	if l.ops%malPromotePeriod == 0 && len(l.passive) > 0 {
		h := l.passive[len(l.passive)-1]
		l.passive = l.passive[:len(l.passive)-1]
		w := threadOf(l.e, h)
		t.Store(l.nodes.get(w)[qStatus], malPromoted)
		l.cnt.WakeupsInCS++
		t.Unpark(w)
	}

	next = t.Load(n[qNext])
	if next == 0 {
		if t.CAS(l.tail, handle(t), 0) {
			// Queue drained: wake all passive waiters so none is lost.
			for len(l.passive) > 0 {
				h := l.passive[len(l.passive)-1]
				l.passive = l.passive[:len(l.passive)-1]
				w := threadOf(l.e, h)
				t.Store(l.nodes.get(w)[qStatus], malPromoted)
				t.Unpark(w)
			}
			return
		}
		next = t.SpinUntil(n[qNext], func(v uint64) bool { return v != 0 })
	}
	t.Store(l.nodes.get(threadOf(l.e, next))[qStatus], malGranted)
}

// TryLock succeeds only on an empty queue.
func (l *Malthusian) TryLock(t *sim.Thread) bool {
	n := l.nodes.get(t)
	t.Store(n[qStatus], malWaiting)
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
func (l *Malthusian) Stats() *Counters { return &l.cnt }

// MalthusianMaker registers the Malthusian lock.
func MalthusianMaker() Maker {
	return Maker{
		Name: "malthusian",
		New: func(e *sim.Engine, tag string) Lock {
			l := &Malthusian{e: e, tail: e.Mem().AllocWord(tag)}
			l.nodes = newNodeTable(e, tag, qWords, &l.cnt)
			return l
		},
		Footprint: func(int) Footprint {
			return Footprint{PerLock: 24, PerWaiter: 32, PerHolder: 32, HeapNodes: true}
		},
	}
}
