package simlocks

import "shfllock/internal/sim"

// LinuxMutex models the stock kernel mutex ("Stock" for the blocking
// benchmarks): a TAS fast path on the owner word, an optimistic-spinning
// mid path in which one waiter at a time (serialized by the OSQ) spins as
// long as the lock owner is running on a CPU, and a parking list slow path.
// The releaser wakes the first sleeper on its own (critical) path.
type LinuxMutex struct {
	e     *sim.Engine
	owner sim.Word // holder handle | waitersBit
	osq   sim.Word // one optimistic spinner at a time (MCS, simplified)
	q     futexQ
	nodes *nodeTable
	cnt   Counters
}

const lmWaitersBit = 1 << 63

// tryAcquire attempts to take the owner word, preserving the waiters bit.
func (l *LinuxMutex) tryAcquire(t *sim.Thread, v uint64) bool {
	return v&^uint64(lmWaitersBit) == 0 && t.CAS(l.owner, v, handle(t)|v&lmWaitersBit)
}

// Lock: fast path, then optimistic spinning while the owner is on-CPU,
// then park on the wait list.
func (l *LinuxMutex) Lock(t *sim.Thread) {
	if t.CAS(l.owner, 0, handle(t)) {
		l.cnt.Acquires++
		return
	}

	// Mid path: join the OSQ; only its head spins on the owner.
	n := l.nodes.get(t)
	t.Store(n[qStatus], mcsWaiting)
	t.Store(n[qNext], 0)
	prev := t.Swap(l.osq, handle(t))
	if prev != 0 {
		pn := l.nodes.get(threadOf(l.e, prev))
		t.Store(pn[qNext], handle(t))
		t.SpinUntil(n[qStatus], func(v uint64) bool { return v == mcsGranted })
	}
	acquired := false
	for !t.NeedResched() {
		v := t.Load(l.owner)
		if l.tryAcquire(t, v) {
			acquired = true
			break
		}
		h := v &^ uint64(lmWaitersBit)
		if h == 0 {
			continue // owner just released; retry the CAS
		}
		if !threadOf(l.e, h).OnCPU() {
			break // owner preempted: spinning is pointless, go sleep
		}
		t.WatchWait(l.owner, v)
	}
	// Leave the OSQ.
	next := t.Load(n[qNext])
	if next == 0 {
		if !t.CAS(l.osq, handle(t), 0) {
			next = t.SpinUntil(n[qNext], func(v uint64) bool { return v != 0 })
		}
	}
	if next != 0 {
		t.Store(l.nodes.get(threadOf(l.e, next))[qStatus], mcsGranted)
	}
	if acquired {
		l.cnt.Acquires++
		return
	}

	// Slow path: park on the wait list until granted a retry.
	for {
		v := t.Load(l.owner)
		if l.tryAcquire(t, v) {
			l.q.remove(t) // drop our stale entry, if any
			// Unlock's Swap cleared the waiters bit; re-arm it for the
			// waiters still parked behind us, or they are never woken.
			for len(l.q.waiters) > 0 {
				v = t.Load(l.owner)
				if v&lmWaitersBit != 0 || t.CAS(l.owner, v, v|lmWaitersBit) {
					break
				}
			}
			break
		}
		if v&lmWaitersBit == 0 {
			if !t.CAS(l.owner, v, v|lmWaitersBit) {
				continue
			}
		}
		l.q.push(t)
		if t.Load(l.owner)&^uint64(lmWaitersBit) == 0 {
			l.q.remove(t)
			continue
		}
		l.cnt.Parks++
		t.Park()
	}
	l.cnt.Acquires++
}

// Unlock releases the owner word and wakes the first sleeper.
func (l *LinuxMutex) Unlock(t *sim.Thread) {
	old := t.Swap(l.owner, 0)
	if old&lmWaitersBit != 0 {
		if w := l.q.pop(); w != nil {
			l.cnt.WakeupsInCS++
			t.Unpark(w)
		}
	}
}

// TryLock attempts the fast path once.
func (l *LinuxMutex) TryLock(t *sim.Thread) bool {
	v := t.Load(l.owner)
	if l.tryAcquire(t, v) {
		l.cnt.TrySuccess++
		l.cnt.Acquires++
		return true
	}
	l.cnt.TryFail++
	return false
}

// Stats returns the lock's counters.
func (l *LinuxMutex) Stats() *Counters { return &l.cnt }

// LinuxMutexMaker registers the stock Linux mutex.
func LinuxMutexMaker() Maker {
	return Maker{
		Name: "stock-mutex",
		New: func(e *sim.Engine, tag string) Lock {
			ws := e.Mem().Alloc(tag, 2)
			l := &LinuxMutex{e: e, owner: ws[0], osq: ws[1]}
			l.nodes = newNodeTable(e, tag, qWords, &l.cnt)
			return l
		},
		Footprint: func(int) Footprint {
			// struct mutex: owner + wait_lock + osq + wait_list.
			return Footprint{PerLock: 40, PerWaiter: 32, PerHolder: 0}
		},
	}
}
