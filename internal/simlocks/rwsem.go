package simlocks

import "shfllock/internal/sim"

// rwsem count-word layout.
const (
	rwsWriter  = 1      // writer holds the lock
	rwsWaiters = 1 << 1 // wait list non-empty
	rwsReader  = 1 << 8 // one active reader
)

type rwsWaiter struct {
	t      *sim.Thread
	writer bool
	// granted is set by the waker before unparking: the lock (or reader
	// slot) has already been transferred.
	granted bool
}

// RWSem models the stock Linux readers-writer semaphore: a single count
// word encoding the writer bit and active-reader count, plus one FIFO wait
// list holding both readers and writers. Writers spin briefly then park;
// readers park whenever a writer is active or queued. Wakeups batch all
// readers at the head of the list. The cache-line pathologies the paper
// calls out are emergent: every reader bounce hits the one count word, and
// parked waiters resume through the wake latency.
type RWSem struct {
	e     *sim.Engine
	count sim.Word
	q     []*rwsWaiter
	// waking serializes wakeHead: its body performs charged memory
	// operations, so two threads could otherwise interleave on q.
	waking bool
	cnt    Counters
}

// Stats returns the lock's counters.
func (l *RWSem) Stats() *Counters { return &l.cnt }

func active(v uint64) uint64 { return v &^ uint64(rwsWaiters) }

// RLock takes a reader slot, parking behind writers.
func (l *RWSem) RLock(t *sim.Thread) {
	v := t.Add(l.count, rwsReader)
	if v&(rwsWriter|rwsWaiters) == 0 {
		return
	}
	t.Add(l.count, ^uint64(rwsReader)+1)
	l.slowpath(t, false)
}

// RUnlock releases a reader slot and wakes the head waiter when the lock
// drains.
func (l *RWSem) RUnlock(t *sim.Thread) {
	v := t.Add(l.count, ^uint64(rwsReader)+1)
	if active(v) == 0 && v&rwsWaiters != 0 {
		l.wakeHead(t)
	}
}

// Lock acquires the writer side: fast CAS, brief spin, then park.
func (l *RWSem) Lock(t *sim.Thread) {
	if t.CAS(l.count, 0, rwsWriter) {
		l.cnt.Acquires++
		return
	}
	// Optimistic spinning: the kernel spins while the core is not
	// over-subscribed and need_resched is clear (with reader owners there
	// is no owner to watch, so the spin is time-bounded).
	deadline := t.Now() + 40_000
	for t.Now() < deadline && !(t.NeedResched() && t.NrRunning() > 1) {
		v := t.Load(l.count)
		if active(v) == 0 && t.CAS(l.count, v, v|rwsWriter) {
			l.cnt.Acquires++
			return
		}
		t.Delay(200)
	}
	l.slowpath(t, true)
	l.cnt.Acquires++
}

// Unlock releases the writer and wakes the head of the wait list.
func (l *RWSem) Unlock(t *sim.Thread) {
	v := t.Add(l.count, ^uint64(rwsWriter)+1)
	if active(v) == 0 && v&rwsWaiters != 0 {
		l.wakeHead(t)
	}
}

// slowpath enqueues and parks until granted by a waker.
func (l *RWSem) slowpath(t *sim.Thread, writer bool) {
	w := &rwsWaiter{t: t, writer: writer}
	l.q = append(l.q, w)
	// Publish the waiters bit.
	for {
		v := t.Load(l.count)
		if v&rwsWaiters != 0 || t.CAS(l.count, v, v|rwsWaiters) {
			break
		}
	}
	// Self-service: an unlock may have drained before we enqueued.
	if v := t.Load(l.count); active(v) == 0 {
		l.wakeHead(t)
	}
	for !w.granted {
		l.cnt.Parks++
		t.Park()
	}
}

// wakeHead grants the lock to the first waiter — or the whole batch of
// consecutive readers — transferring ownership before unparking. Only one
// thread runs the drain at a time; anyone arriving meanwhile leaves, and
// the drainer re-checks for missed work before returning.
func (l *RWSem) wakeHead(t *sim.Thread) {
	for {
		if l.waking {
			return
		}
		l.waking = true
		l.drain(t)
		l.waking = false
		// A release may have happened while we held the waking flag.
		if len(l.q) > 0 && active(l.e.Mem().Peek(l.count)) == 0 {
			continue
		}
		return
	}
}

func (l *RWSem) drain(t *sim.Thread) {
	if len(l.q) == 0 {
		// Clear the stale waiters bit.
		for {
			v := t.Load(l.count)
			if v&rwsWaiters == 0 || t.CAS(l.count, v, v&^uint64(rwsWaiters)) {
				return
			}
		}
	}
	if l.q[0].writer {
		// Grant the writer: requires the lock to still be free.
		for {
			v := t.Load(l.count)
			if active(v) != 0 {
				return // someone took it; their release will wake us
			}
			nv := v | rwsWriter
			if len(l.q) == 1 {
				nv &^= uint64(rwsWaiters)
			}
			if t.CAS(l.count, v, nv) {
				break
			}
		}
		w := l.q[0]
		l.q = l.q[1:]
		w.granted = true
		l.cnt.WakeupsInCS++
		t.Unpark(w.t)
		l.rearmWaitersBit(t)
		return
	}
	// Grant every reader at the head of the list. Count the batch after
	// winning the count-word update so the prefix cannot go stale.
	for {
		n := 0
		for n < len(l.q) && !l.q[n].writer {
			n++
		}
		v := t.Load(l.count)
		if v&rwsWriter != 0 || n == 0 {
			return
		}
		nv := v + uint64(n)*rwsReader
		if n == len(l.q) {
			nv &^= uint64(rwsWaiters)
		}
		if !t.CAS(l.count, v, nv) {
			continue
		}
		batch := append([]*rwsWaiter(nil), l.q[:n]...)
		l.q = l.q[n:]
		for _, w := range batch {
			w.granted = true
			l.cnt.WakeupsInCS++
			t.Unpark(w.t)
		}
		l.rearmWaitersBit(t)
		return
	}
}

// rearmWaitersBit restores the waiters bit if a waiter enqueued while a
// grant was concurrently clearing it (the enqueuer saw the bit still set
// and skipped publishing).
func (l *RWSem) rearmWaitersBit(t *sim.Thread) {
	for len(l.q) > 0 {
		v := t.Load(l.count)
		if v&rwsWaiters != 0 || t.CAS(l.count, v, v|rwsWaiters) {
			return
		}
	}
}

// RWSemMaker registers the stock rwsem.
func RWSemMaker() RWMaker {
	return RWMaker{
		Name: "stock-rwsem",
		New:  func(e *sim.Engine, tag string) RWLock { return &RWSem{e: e, count: e.Mem().AllocWord(tag)} },
		Footprint: func(int) Footprint {
			return Footprint{PerLock: 40, PerWaiter: 32, PerHolder: 0}
		},
	}
}
