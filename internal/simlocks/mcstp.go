package simlocks

import "shfllock/internal/sim"

// MCSTP node status values.
const (
	tpWaiting = 0
	tpGranted = 1
	tpFailed  = 2 // holder timed us out (we looked preempted); re-enqueue
)

// MCSTP is the time-published MCS lock (He, Scherer & Scott, HiPC'05):
// MCS made preemption-adaptive for over-subscribed userspace. Waiters
// publish liveness while spinning; at release the holder skips waiters
// that look preempted, marking them failed so they re-enqueue when they
// run again.
//
// Simulation note: real MCS-TP infers preemption from a published
// timestamp going stale. The simulator reads the waiter's on-CPU state
// directly (charging the same qnode-line load the timestamp read costs);
// the observable behaviour — skip descheduled waiters, fail them, let them
// retry — is identical, without modelling timer reads.
type MCSTP struct {
	e     *sim.Engine
	tail  sim.Word
	nodes *nodeTable
	cnt   Counters
}

// Lock joins the queue, re-enqueueing whenever the holder fails us for
// having been preempted.
func (l *MCSTP) Lock(t *sim.Thread) {
	for {
		n := l.nodes.get(t)
		t.Store(n[qStatus], tpWaiting)
		t.Store(n[qNext], 0)
		prev := t.Swap(l.tail, handle(t))
		if prev == 0 {
			l.cnt.Acquires++
			return
		}
		pn := l.nodes.get(threadOf(l.e, prev))
		t.Store(pn[qNext], handle(t))
		v := t.SpinUntil(n[qStatus], func(x uint64) bool { return x != tpWaiting })
		if v == tpGranted {
			l.cnt.Acquires++
			return
		}
		// Failed: we were (or appeared) preempted; try again.
		t.Yield()
	}
}

// Unlock passes to the first waiter that is still on a CPU, failing the
// stale ones.
func (l *MCSTP) Unlock(t *sim.Thread) {
	n := l.nodes.get(t)
	cur := t.Load(n[qNext])
	for {
		if cur == 0 {
			if t.CAS(l.tail, handle(t), 0) {
				return
			}
			cur = t.SpinUntil(n[qNext], func(v uint64) bool { return v != 0 })
		}
		w := threadOf(l.e, cur)
		cn := l.nodes.get(w)
		// Read the published liveness (one qnode-line load), then decide.
		t.Load(cn[qStatus])
		if w.OnCPU() {
			t.Store(cn[qStatus], tpGranted)
			return
		}
		// Looks preempted: fail it and move on. If it has no successor,
		// grant anyway — failing the last waiter could strand the queue.
		next := t.Load(cn[qNext])
		if next == 0 && t.Load(l.tail) == cur {
			t.Store(cn[qStatus], tpGranted)
			return
		}
		if next == 0 {
			next = t.SpinUntil(cn[qNext], func(v uint64) bool { return v != 0 })
		}
		t.Store(cn[qStatus], tpFailed)
		l.cnt.Steals++ // reuse: preemption-failed handoffs
		cur = next
	}
}

// TryLock succeeds only on an empty queue.
func (l *MCSTP) TryLock(t *sim.Thread) bool {
	n := l.nodes.get(t)
	t.Store(n[qStatus], tpWaiting)
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
func (l *MCSTP) Stats() *Counters { return &l.cnt }

// MCSTPMaker registers the time-published MCS lock.
func MCSTPMaker() Maker {
	return Maker{
		Name: "mcstp",
		New: func(e *sim.Engine, tag string) Lock {
			l := &MCSTP{e: e, tail: e.Mem().AllocWord(tag)}
			l.nodes = newNodeTable(e, tag, qWords, &l.cnt)
			return l
		},
		Footprint: func(int) Footprint {
			return Footprint{PerLock: 8, PerWaiter: 48, PerHolder: 48, HeapNodes: true}
		},
	}
}
