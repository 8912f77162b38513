package simlocks

import "shfllock/internal/sim"

// futexQ is a wait queue keyed on a lock word, modelling the kernel futex
// bucket: parked threads in FIFO order. List manipulation itself happens
// inside the (charged) park/wake syscalls.
type futexQ struct {
	waiters []*sim.Thread
}

// push enqueues t unless it is already queued: a waiter that was woken by
// a stale permit loops and enqueues again, and a duplicate entry would make
// a future wake hit a ghost instead of a parked thread.
func (q *futexQ) push(t *sim.Thread) {
	for _, w := range q.waiters {
		if w == t {
			return
		}
	}
	q.waiters = append(q.waiters, t)
}

func (q *futexQ) pop() *sim.Thread {
	if len(q.waiters) == 0 {
		return nil
	}
	t := q.waiters[0]
	q.waiters = q.waiters[1:]
	return t
}

func (q *futexQ) remove(t *sim.Thread) {
	for i, w := range q.waiters {
		if w == t {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return
		}
	}
}

// Pthread models the stock glibc pthread_mutex (PTHREAD_MUTEX_TIMED): a
// three-state word (0 free, 1 locked, 2 locked-with-waiters) and a futex.
// No spinning: a contended locker goes straight to sleep, so every
// contended handoff pays the wakeup latency — which is why pthread stops
// scaling as soon as waiters accumulate (Figure 12).
type Pthread struct {
	word sim.Word
	q    futexQ
	spin uint64 // pre-park spin budget in cycles (0 for stock pthread)
	cnt  Counters
}

// Lock implements the classic futex mutex: CAS fast path, Swap-to-2 slow
// path with futex sleeps.
func (l *Pthread) Lock(t *sim.Thread) {
	if t.CAS(l.word, 0, 1) {
		l.cnt.Acquires++
		return
	}
	// Optional bounded spinning (Mutexee).
	if l.spin > 0 {
		deadline := t.Now() + l.spin
		for t.Now() < deadline {
			v := t.Load(l.word)
			if v == 0 && t.CAS(l.word, 0, 1) {
				l.cnt.Acquires++
				return
			}
			t.Delay(200)
		}
	}
	for t.Swap(l.word, 2) != 0 {
		// futex_wait(word, 2)
		l.q.push(t)
		if t.Load(l.word) != 2 {
			l.q.remove(t) // value changed: syscall would return EAGAIN
			continue
		}
		l.cnt.Parks++
		t.Park()
	}
	l.q.remove(t) // drop our stale entry, if any
	l.cnt.Acquires++
}

// Unlock releases and wakes one sleeper if the waiters state was set.
func (l *Pthread) Unlock(t *sim.Thread) {
	if t.Swap(l.word, 0) == 2 {
		if w := l.q.pop(); w != nil {
			l.cnt.WakeupsInCS++ // futex_wake on the release path
			t.Unpark(w)
		}
	}
}

// TryLock attempts the fast path once.
func (l *Pthread) TryLock(t *sim.Thread) bool {
	if t.Load(l.word) == 0 && t.CAS(l.word, 0, 1) {
		l.cnt.TrySuccess++
		l.cnt.Acquires++
		return true
	}
	l.cnt.TryFail++
	return false
}

// Stats returns the lock's counters.
func (l *Pthread) Stats() *Counters { return &l.cnt }

// PthreadMaker registers the stock pthread mutex.
func PthreadMaker() Maker {
	return Maker{
		Name: "pthread",
		New:  func(e *sim.Engine, tag string) Lock { return &Pthread{word: e.Mem().AllocWord(tag)} },
		Footprint: func(int) Footprint {
			return Footprint{PerLock: 40, PerWaiter: 0, PerHolder: 0}
		},
	}
}

// MutexeeMaker registers the Mutexee lock (Falsafi et al., ATC'16): the
// same futex protocol but with a bounded spin phase before sleeping,
// trading a little CPU for far fewer syscalls and wakeup latencies.
func MutexeeMaker() Maker {
	return Maker{
		Name: "mutexee",
		New:  func(e *sim.Engine, tag string) Lock { return &Pthread{word: e.Mem().AllocWord(tag), spin: 4000} },
		Footprint: func(int) Footprint {
			return Footprint{PerLock: 16, PerWaiter: 0, PerHolder: 0}
		},
	}
}
