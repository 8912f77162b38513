package simlocks

import (
	"shfllock/internal/sim"
)

// ShflLock-RW count-word layout (§4.2.3): a writer byte (WB), a writer-
// waiting bit (WWb) and a centralized reader count.
const (
	rwWB    = 1       // writer holds the lock
	rwWWb   = 1 << 8  // a writer is waiting for readers to drain
	rwRUnit = 1 << 16 // one reader
)

// ShflRW is the blocking readers-writer ShflLock: a blocking ShflLock
// (wlock) ordering the slow path, plus one combined word holding the
// reader count and writer state. The reader indicator is centralized —
// 8 bytes, not per-socket — which is the memory-versus-read-throughput
// trade Figure 9(c) and Figure 10(c) examine.
type ShflRW struct {
	e     *sim.Engine
	count sim.Word
	wlock *ShflLock
	cnt   Counters
}

// Stats returns the lock's counters.
func (l *ShflRW) Stats() *Counters { return &l.cnt }

// RLock optimistically joins the readers; behind a writer it orders itself
// through the wlock.
func (l *ShflRW) RLock(t *sim.Thread) {
	v := t.Add(l.count, rwRUnit)
	if v&(rwWB|rwWWb) == 0 {
		return
	}
	t.Add(l.count, ^uint64(rwRUnit)+1)
	l.wlock.Lock(t)
	// Holding wlock: announce ourselves, then wait for the writer to
	// leave. New writers queue behind us on wlock.
	t.Add(l.count, rwRUnit)
	for {
		v := t.Load(l.count)
		if v&rwWB == 0 {
			break
		}
		t.WatchWait(l.count, v)
	}
	l.wlock.Unlock(t)
}

// RUnlock drops the reader count.
func (l *ShflRW) RUnlock(t *sim.Thread) {
	t.Add(l.count, ^uint64(rwRUnit)+1)
}

// Lock acquires the writer side.
func (l *ShflRW) Lock(t *sim.Thread) {
	if t.CAS(l.count, 0, rwWB) {
		l.cnt.Acquires++
		return
	}
	l.wlock.Lock(t)
	// Stop new readers, wait for existing ones to drain.
	t.FetchOr(l.count, rwWWb)
	for {
		v := t.Load(l.count)
		// Wait for existing readers to drain and for a fast-path writer
		// (which never takes wlock) to leave.
		if v>>16 == 0 && v&rwWB == 0 {
			// Atomically clear WWb and set WB.
			if t.CAS(l.count, v, (v&^uint64(rwWWb))|rwWB) {
				break
			}
			continue
		}
		t.WatchWait(l.count, v)
	}
	l.wlock.Unlock(t)
	l.cnt.Acquires++
}

// Unlock releases the writer byte.
func (l *ShflRW) Unlock(t *sim.Thread) {
	t.FetchAnd(l.count, ^uint64(rwWB))
}

// ShflRWMaker registers the readers-writer ShflLock.
func ShflRWMaker() RWMaker {
	return RWMaker{
		Name: "shfllock-rw",
		New: func(e *sim.Engine, tag string) RWLock {
			return &ShflRW{
				e:     e,
				count: e.Mem().AllocWord(tag + "/count"),
				wlock: newShfl(e, tag+"/wlock", true),
			}
		},
		Footprint: func(int) Footprint {
			// 8-byte indicator + 12-byte wlock.
			return Footprint{PerLock: 20, PerWaiter: 28, PerHolder: 0}
		},
	}
}

// PerSocketRW builds the hierarchical readers-writer locks the paper
// compares against (Cohort-RW, CST-RW): a per-socket reader indicator —
// one padded cache line per socket — over any mutual-exclusion lock for
// writers. Reads scale beautifully (each socket's readers share a local
// line); the cost is ~128 bytes per socket per lock instance.
type PerSocketRW struct {
	e       *sim.Engine
	readers []sim.Word // per-socket padded reader counts
	wflag   sim.Word   // writer-active flag
	mutex   Lock
	cnt     Counters
}

// newPerSocketRW wraps mutex with a per-socket read indicator.
func newPerSocketRW(e *sim.Engine, tag string, mutex Lock) *PerSocketRW {
	return &PerSocketRW{
		e:       e,
		readers: e.Mem().AllocPadded(tag+"/readers", e.Topology().Sockets),
		wflag:   e.Mem().AllocWord(tag + "/wflag"),
		mutex:   mutex,
	}
}

// Stats returns the lock's counters.
func (l *PerSocketRW) Stats() *Counters { return &l.cnt }

// RLock raises the socket-local indicator, backing off while a writer is
// active.
func (l *PerSocketRW) RLock(t *sim.Thread) {
	r := l.readers[t.Socket()]
	for {
		t.Add(r, 1)
		v := t.Load(l.wflag)
		if v == 0 {
			return
		}
		t.Add(r, ^uint64(0))
		t.SpinWhileEq(l.wflag, 1)
	}
}

// RUnlock lowers the socket-local indicator.
func (l *PerSocketRW) RUnlock(t *sim.Thread) {
	t.Add(l.readers[t.Socket()], ^uint64(0))
}

// Lock acquires the writer mutex, raises the writer flag, and waits for
// every socket's readers to drain.
func (l *PerSocketRW) Lock(t *sim.Thread) {
	l.mutex.Lock(t)
	t.Store(l.wflag, 1)
	for _, r := range l.readers {
		for {
			v := t.Load(r)
			if v == 0 {
				break
			}
			t.WatchWait(r, v)
		}
	}
	l.cnt.Acquires++
}

// Unlock lowers the writer flag and releases the mutex.
func (l *PerSocketRW) Unlock(t *sim.Thread) {
	t.Store(l.wflag, 0)
	l.mutex.Unlock(t)
}

// CohortRWMaker registers the Cohort readers-writer lock (per-socket
// indicators over a cohort mutex) — "Cohort" in Figures 1 and 9(b,c).
func CohortRWMaker() RWMaker {
	return RWMaker{
		Name: "cohort-rw",
		New: func(e *sim.Engine, tag string) RWLock {
			return newPerSocketRW(e, tag, newCohort(e, tag+"/w"))
		},
		Footprint: func(sockets int) Footprint {
			return Footprint{PerLock: 128*sockets + 128*sockets + 128, PerWaiter: 24, PerHolder: 24}
		},
	}
}

// CSTRWMaker registers the CST readers-writer lock: per-socket indicators
// over a CST mutex, with the per-socket structures dynamically allocated.
func CSTRWMaker() RWMaker {
	allocFor := allocatorPerEngine()
	return RWMaker{
		Name: "cst-rw",
		New: func(e *sim.Engine, tag string) RWLock {
			return newPerSocketRW(e, tag, newCST(e, allocFor(e), tag+"/w"))
		},
		Footprint: func(sockets int) Footprint {
			return Footprint{PerLock: 128*sockets + cstSnodeBytes*sockets + 32, PerWaiter: 24, PerHolder: 0, Dynamic: true}
		},
	}
}
