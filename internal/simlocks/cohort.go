package simlocks

import "shfllock/internal/sim"

// cohortBatch bounds consecutive intra-socket handoffs before the global
// lock must be released, for long-term fairness.
const cohortBatch = 64

// Cohort implements lock cohorting (Dice, Marathe & Shavit, PPoPP'12) with
// ticket locks at both levels (C-TKT-TKT): a global ticket lock plus one
// ticket lock per socket, all statically allocated. A socket that owns the
// global lock passes ownership among its local waiters up to cohortBatch
// times, so the lock and critical-section data stay on one socket.
//
// The price is exactly what Table 1 records: on an 8-socket machine the
// static structure is ~1,152 bytes per lock instance (8 padded per-socket
// lines plus the global line), which is what bloats inodes in Figure 1.
type Cohort struct {
	global sim.Word // global ticket lock (padded line)
	// Per socket, one padded line holding [ticket, ownedFlag, batch].
	local [][]sim.Word
	cnt   Counters
}

// newCohort creates a cohort lock for the engine's machine.
func newCohort(e *sim.Engine, tag string) *Cohort {
	l := &Cohort{global: e.Mem().AllocWord(tag + "/global")}
	socks := e.Topology().Sockets
	l.local = make([][]sim.Word, socks)
	for s := range l.local {
		l.local[s] = e.Mem().Alloc(tag+"/socket", 3)
	}
	return l
}

const (
	cohTicket = 0
	cohOwned  = 1
	cohBatch  = 2
)

func ticketAcquire(t *sim.Thread, w sim.Word) {
	v := t.Add(w, ticketInc)
	my := (v >> 32) - 1
	if v&0xffffffff == my {
		return
	}
	t.SpinUntil(w, func(x uint64) bool { return x&0xffffffff == my })
}

// ticketHasWaiters reports whether anyone queues behind the current holder.
func ticketHasWaiters(t *sim.Thread, w sim.Word) bool {
	v := t.Load(w)
	return v>>32 > v&0xffffffff+1
}

// Lock takes the socket-local ticket lock, then the global lock unless the
// socket already owns it.
func (l *Cohort) Lock(t *sim.Thread) {
	loc := l.local[t.Socket()]
	ticketAcquire(t, loc[cohTicket])
	if t.Load(loc[cohOwned]) == 1 {
		l.cnt.Acquires++
		return // global lock inherited from the previous local holder
	}
	ticketAcquire(t, l.global)
	t.Store(loc[cohOwned], 1)
	l.cnt.Acquires++
}

// Unlock passes within the socket while local waiters exist and the batch
// quota holds; otherwise it releases the global then the local lock.
func (l *Cohort) Unlock(t *sim.Thread) {
	loc := l.local[t.Socket()]
	if ticketHasWaiters(t, loc[cohTicket]) {
		b := t.Load(loc[cohBatch])
		if b < cohortBatch {
			t.Store(loc[cohBatch], b+1)
			t.Add(loc[cohTicket], 1) // local handoff; global stays ours
			return
		}
	}
	// Give up the global lock; the next local holder must re-acquire it.
	t.Store(loc[cohBatch], 0)
	t.Store(loc[cohOwned], 0)
	t.Add(l.global, 1)
	t.Add(loc[cohTicket], 1)
}

// TryLock succeeds only when both levels are immediately available. After
// winning the local ticket the global acquisition may briefly wait, as in
// real cohort trylocks built from ticket locks.
func (l *Cohort) TryLock(t *sim.Thread) bool {
	loc := l.local[t.Socket()]
	v := t.Load(loc[cohTicket])
	if v>>32 != v&0xffffffff {
		l.cnt.TryFail++
		return false
	}
	if !t.CAS(loc[cohTicket], v, v+ticketInc) {
		l.cnt.TryFail++
		return false
	}
	if t.Load(loc[cohOwned]) != 1 {
		ticketAcquire(t, l.global)
		t.Store(loc[cohOwned], 1)
	}
	l.cnt.TrySuccess++
	l.cnt.Acquires++
	return true
}

// Stats returns the lock's counters.
func (l *Cohort) Stats() *Counters { return &l.cnt }

// CohortMaker registers the cohort lock.
func CohortMaker() Maker {
	return Maker{
		Name: "cohort",
		New:  func(e *sim.Engine, tag string) Lock { return newCohort(e, tag) },
		Footprint: func(sockets int) Footprint {
			return Footprint{PerLock: 128*sockets + 128, PerWaiter: 24, PerHolder: 24}
		},
	}
}
