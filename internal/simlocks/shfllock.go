package simlocks

import (
	"fmt"

	"shfllock/internal/shuffle"
	"shfllock/internal/sim"
)

// ShflLock queue-node status values are shuffle.Status*; these aliases keep
// the lock code close to the paper's pseudocode (Figures 4 and 6).
const (
	sWaiting   = shuffle.StatusWaiting
	sReady     = shuffle.StatusReady
	sParked    = shuffle.StatusParked
	sSpinning  = shuffle.StatusSpinning
	sAbandoned = shuffle.StatusAbandoned
	sReclaimed = shuffle.StatusReclaimed
)

// ShflLock queue-node field offsets.
const (
	shStatus = iota
	shNext
	shSocket
	shBatch
	shShuffler
	shLastHint // +qlast optimization: where the previous shuffler stopped
	shPrio     // waiter priority, used by the priority policy (§7)
	shWords
)

// glock bit layout: byte 0 = locked, bit 8 = no-stealing.
const (
	shLocked  = 1
	shNoSteal = 1 << 8
)

// shufflePoll paces a shuffler's retry loop while it has not yet found a
// group-member successor (the real implementation busy-polls the queue).
const shufflePoll = 300

// abortPoll paces an abortable waiter's deadline checks: bounded Delay
// slices instead of open-ended watch-waits, so a waiter never sleeps
// through its own deadline.
const abortPoll = 300

// ShflLock is the paper's lock: a TAS lock guarding the critical section
// plus an MCS-style waiter queue whose *waiters* reorder it (shuffling)
// according to a pluggable policy — NUMA grouping by default, plus wakeup
// hints in the blocking variant. The lock state is decoupled from the
// queue: the holder releases its queue node before entering the critical
// section, TryLock is a single CAS, and the TAS path permits stealing.
//
// The shuffling rounds themselves run in the substrate-independent
// internal/shuffle engine; this type contributes the simulated-memory
// accesses (so the cost model charges exact cache-line traffic) and the
// TAS/queue mechanism around them.
type ShflLock struct {
	e     *sim.Engine
	glock sim.Word
	tail  sim.Word
	nodes *nodeTable

	// Blocking selects the ShflLock^B behaviour of Figure 6/7: waiters
	// park under over-subscription, shufflers wake sleepers, stealing
	// stays enabled.
	Blocking bool

	// policy is the epoched holder driving the shuffling rounds (NUMA
	// grouping by default; the ablation and priority makers install other
	// registered policies). Every walk reads it exactly once through pol()
	// and pins the result, so SetPolicy is safe at any virtual instant —
	// including mid-shuffle, mid-reclaim and mid-abdication, which the
	// chaos PolicyFlip fault forces. The box and its TransitionLog are
	// engine metadata: policy reads are never charged accesses, so runs
	// that never transition keep their exact memory-access sequence.
	policy shuffle.PolicyBox

	// StealLocalOnly restricts TAS stealing to threads on the same socket
	// as the previous holder (the "ShflLock (NUMA)" variant of Fig 11d).
	StealLocalOnly bool
	lastSocket     sim.Word

	// prios holds per-thread priorities for the priority policy.
	prios map[int]uint64

	// roleOracle, when enabled, tracks which thread handle holds the
	// shuffler role and panics on a duplicate (debug assertion only; it
	// is engine metadata, not simulated state).
	roleOracle bool
	roleHolder uint64
	cnt        Counters

	// mayAbort latches on the first LockAbort and switches the grant and
	// scan paths to the abandonment-aware protocol. Engine metadata, never
	// charged: abort-free runs keep their exact memory-access sequence.
	mayAbort bool
	// limbo records threads whose abandoned node is still linked in the
	// queue; their next acquisition must wait for the sReclaimed handshake
	// before reusing it (the MCS-TP timeout protocol's reclamation rule).
	limbo map[int]bool
}

// newShfl creates a ShflLock with all optimizations, blocking or not.
func newShfl(e *sim.Engine, tag string, blocking bool) *ShflLock {
	ws := e.Mem().Alloc(tag, 2)
	l := &ShflLock{
		e: e, glock: ws[0], tail: ws[1],
		Blocking: blocking,
	}
	l.policy.Set(shuffle.NUMA(), "init", 0)
	l.nodes = newNodeTable(e, tag, shWords, &l.cnt)
	return l
}

// SetPolicy installs a policy through the epoched transition protocol,
// recording (epoch, from, to, trigger, at) in the lock's TransitionLog.
// Safe at any virtual instant; at is the engine's virtual time (0 for
// construction-time installs).
func (l *ShflLock) SetPolicy(p shuffle.Policy, trigger string, at uint64) {
	l.policy.Set(p, trigger, at)
}

// Transitions exposes the lock's policy transition record.
func (l *ShflLock) Transitions() *shuffle.TransitionLog { return l.policy.Log() }

// PolicyEpoch returns the current transition fence value (monotone).
func (l *ShflLock) PolicyEpoch() uint64 { return l.policy.Epoch() }

// QueueResidue inspects the queue after a run completes (uncharged peeks;
// only meaningful once every worker has exited). An empty tail is a clean
// queue. A tail still pointing at an abandoned or reclaimed corpse is
// legal: the aborter exited before any later arrival walked past it. Any
// other resident is a stranded waiter — a lost wakeup — and is returned as
// a description; "" means the queue is sound.
func (l *ShflLock) QueueResidue() string {
	mem := l.e.Mem()
	tail := mem.Peek(l.tail)
	if tail == 0 {
		return ""
	}
	st := mem.Peek(l.node(tail)[shStatus])
	if st == sAbandoned || st == sReclaimed {
		return ""
	}
	return fmt.Sprintf("tail=T%d status=%d still queued after run", tail-1, st)
}

// pol returns the current policy (never nil). Callers hold the returned
// value — after pinning via shuffle.Pin — for one complete walk.
func (l *ShflLock) pol() shuffle.Policy {
	if p := l.policy.Get(); p != nil {
		return p
	}
	return shuffle.NUMA()
}

// maybeFlip consults the fault injector at a transition-adversarial moment
// and applies any requested policy swap through the transition API. Engine
// metadata only: no simulated memory is read or written, so runs without a
// flip-armed injector keep their exact access sequence.
func (l *ShflLock) maybeFlip(t *sim.Thread, m sim.FlipMoment) {
	inj := l.e.Injector()
	if inj == nil {
		return
	}
	name := inj.PolicyFlip(t, m)
	if name == "" {
		return
	}
	if p := shuffle.ByName(name); p != nil {
		l.SetPolicy(p, "chaos:"+m.String(), t.Now())
	}
}

// Stats returns the lock's counters.
func (l *ShflLock) Stats() *Counters { return &l.cnt }

// giveRole is the single point where the shuffler flag is set; the oracle
// asserts role uniqueness.
func (l *ShflLock) giveRole(t *sim.Thread, to uint64) {
	// The uniqueness assertion only holds abort-free: an abandoning waiter
	// can leave the role stranded on its corpse, where it dies at
	// reclamation, so a fresh round can legitimately start alongside it.
	if l.roleOracle && !l.mayAbort {
		if l.roleHolder != 0 && l.roleHolder != to && l.roleHolder != handle(t) {
			panic(fmt.Sprintf("shfllock: duplicate role: T%d gives role to T%d while T%d holds it",
				t.ID(), to-1, l.roleHolder-1))
		}
		l.roleHolder = to
	}
	t.Store(l.node(to)[shShuffler], 1)
}

// takeRole is called at shuffle start when the flag is consumed.
func (l *ShflLock) takeRole(t *sim.Thread) {
	if l.roleOracle && !l.mayAbort {
		if l.roleHolder != 0 && l.roleHolder != handle(t) {
			panic(fmt.Sprintf("shfllock: T%d shuffles but role is at T%d", t.ID(), l.roleHolder-1))
		}
		l.roleHolder = handle(t)
	}
}

func (l *ShflLock) node(h uint64) []sim.Word {
	return l.nodes.get(threadOf(l.e, h))
}

// trySteal attempts the TAS fast path (also the stealing path).
func (l *ShflLock) trySteal(t *sim.Thread) bool {
	if t.Load(l.glock) != 0 {
		return false
	}
	if l.StealLocalOnly && l.lastSocket != 0 {
		if t.Load(l.lastSocket) != uint64(t.Socket())+1 && l.e.Mem().Peek(l.tail) != 0 {
			return false
		}
	}
	if t.CAS(l.glock, 0, shLocked) {
		if l.StealLocalOnly && l.lastSocket != 0 {
			t.Store(l.lastSocket, uint64(t.Socket())+1)
		}
		if l.e.Mem().Peek(l.tail) != 0 {
			l.cnt.Steals++
		}
		return true
	}
	return false
}

// Lock acquires the lock (Figure 4 spin_lock / Figure 6 mutex_lock).
func (l *ShflLock) Lock(t *sim.Thread) {
	if l.trySteal(t) {
		l.cnt.Acquires++
		return
	}
	if l.mayAbort && l.limbo[t.ID()] {
		// Our abandoned node from an earlier timed-out attempt is still
		// queued; wait for a reclaimer to publish sReclaimed before reusing
		// it. (Stealing above needs no node, so it works even in limbo.)
		st := l.nodes.get(t)[shStatus]
		t.SpinUntil(st, func(v uint64) bool { return v == sReclaimed })
		delete(l.limbo, t.ID())
	}

	// Join the waiter queue; the qnode lives on the waiter's stack.
	n := l.nodes.get(t)
	t.Store(n[shStatus], sWaiting)
	t.Store(n[shNext], 0)
	t.Store(n[shSocket], uint64(t.Socket()))
	t.Store(n[shBatch], 0)
	t.Store(n[shShuffler], 0)
	t.Store(n[shLastHint], 0)
	if l.prios != nil {
		t.Store(n[shPrio], l.prios[t.ID()])
	}

	prev := t.Swap(l.tail, handle(t))
	if prev != 0 {
		l.spinUntilVeryNextWaiter(t, prev, n)
	} else if !l.Blocking {
		// Disable stealing to preserve FIFO while a queue exists. The
		// blocking variant skips this (optimization 1, §4.2.2): waking a
		// waiter can take up to 10ms, so stealing keeps the lock live.
		t.FetchOr(l.glock, shNoSteal)
	}

	if l.Blocking {
		// Figure 7: proactively put the successor in spinning mode and
		// wake it if parked, off the critical path, so the head handoff
		// after our critical section does not need a wakeup.
		if qnext := t.Load(n[shNext]); qnext != 0 {
			l.setSpinning(t, qnext, false)
		}
	}

	// Head of the queue: shuffle, then take the TAS lock (Figure 4 lines
	// 20-30). The shuffler's exit condition fires as soon as the lock is
	// free, so a shuffle on the handoff path costs at most one scanned
	// node — the transient price of sorting the queue. An unproductive
	// head keeps the role (roleMine) without rescanning; it relays role
	// and frontier to its successor when it acquires.
	roleMine := false
	for {
		if !roleMine && (t.Load(n[shBatch]) == 0 || t.Load(n[shShuffler]) != 0) {
			// One policy read per round, pinned for the whole walk.
			pol := shuffle.Pin(l.pol())
			roleMine = shuffle.Run(simSub{l, t}, pol, handle(t),
				shuffle.Input{Blocking: l.Blocking, VNext: true}).Retained
		}
		x := t.Load(l.glock)
		if x&0xff == 0 {
			if t.CAS(l.glock, x, x|shLocked) {
				break
			}
			continue
		}
		t.WatchWait(l.glock, x)
	}
	if l.StealLocalOnly && l.lastSocket != 0 {
		t.Store(l.lastSocket, uint64(t.Socket())+1)
	}

	l.passHead(t, n, roleMine)
	l.cnt.Acquires++
}

// passHead is the MCS unlock phase, moved to the acquire side (lock-state
// decoupling): release the queue node before entering the critical section.
// It is also the abdication path — an abortable head that runs out of
// budget calls it without ever taking the TAS lock.
//
// While no LockAbort has ever run, this is the exact original epilogue —
// same simulated accesses in the same order, so abort-free runs are
// byte-identical. Once mayAbort latches, the successor walk skips and
// reclaims abandoned nodes and grants by CAS, so a grant cannot race an
// abandonment: for each candidate exactly one of {grant, abandon} wins.
func (l *ShflLock) passHead(t *sim.Thread, n []sim.Word, roleMine bool) {
	// Pin the policy for the whole walk: abdication and reclaim run under
	// the epoch observed here, whatever transitions land mid-walk.
	pol := shuffle.Pin(l.pol())
	if !l.mayAbort {
		next := t.Load(n[shNext])
		if next == 0 {
			if t.CAS(l.tail, handle(t), 0) {
				// The queue is empty: if we still held the shuffler role it
				// dies with the queue.
				if l.roleOracle && l.roleHolder == handle(t) {
					l.roleHolder = 0
				}
				if !l.Blocking {
					// Re-enable stealing now that the queue is empty.
					x := t.Load(l.glock)
					if x&shNoSteal != 0 {
						t.CAS(l.glock, x, x&^uint64(shNoSteal))
					}
				}
				return
			}
			next = t.SpinUntil(n[shNext], func(v uint64) bool { return v != 0 })
		}
		if next == handle(t) {
			panic(fmt.Sprintf("shfllock: T%d granting itself", t.ID()))
		}
		// If we still hold the shuffler role (our scan never found a group
		// member), relay it — with the scan frontier — to our successor, so
		// traversal resumes near where it stopped instead of restarting
		// (invariant 4: a shuffler may pass the role to one of its
		// successors; this is what makes +qlast "traverse mostly from the
		// near end of the tail"). These stores happen while we hold the TAS
		// lock, off the handoff path.
		if pol.PassRole() && (roleMine || l.e.Mem().Peek(n[shShuffler]) != 0) {
			if pol.UseHint() {
				// Forward the frontier only if it names a node that is still
				// queued behind the recipient: not the recipient, and not
				// ourselves (we are about to leave the queue).
				if h := t.Load(n[shLastHint]); h != 0 && h != next && h != handle(t) {
					t.Store(l.node(next)[shLastHint], h)
				}
			}
			l.giveRole(t, next)
		} else if l.roleOracle && l.roleHolder == handle(t) {
			// Leaving the queue while holding the role without relaying it
			// (PassRole disabled, or the role was never ours): it dies here.
			l.roleHolder = 0
		}
		// Notify the very next waiter that it is now the queue head.
		if l.Blocking {
			old := t.Swap(l.node(next)[shStatus], sReady)
			if old == sParked {
				// Rare thanks to the Figure 7 optimization; this is the
				// wakeup-inside-the-critical-path that Figure 11(f) counts.
				l.cnt.WakeupsInCS++
				t.Unpark(threadOf(l.e, next))
			}
		} else {
			t.Store(l.node(next)[shStatus], sReady)
		}
		return
	}

	// Abandonment-aware walk. The successor handle is carried in `next`
	// rather than re-read through reclaimed nodes: a corpse's outgoing link
	// is read exactly once, BEFORE publishing sReclaimed, because the owner
	// reuses (re-initializes) the node the moment it observes reclamation.
	next := t.Load(n[shNext])
	if next == 0 {
		if t.CAS(l.tail, handle(t), 0) {
			if !l.Blocking {
				x := t.Load(l.glock)
				if x&shNoSteal != 0 {
					t.CAS(l.glock, x, x&^uint64(shNoSteal))
				}
			}
			return
		}
		// A joiner swapped the tail but has not linked in yet.
		next = t.SpinUntil(n[shNext], func(v uint64) bool { return v != 0 })
	}
	roleDone := false
	for {
		if next == handle(t) {
			panic(fmt.Sprintf("shfllock: T%d granting itself", t.ID()))
		}
		st := t.Load(l.node(next)[shStatus])
		if st == sAbandoned {
			nn := t.Load(l.node(next)[shNext])
			if nn == 0 {
				// The corpse is the queue tail: retire the whole queue, or
				// wait for the joiner that just swapped the tail to link in.
				if t.CAS(l.tail, next, 0) {
					t.Store(l.node(next)[shStatus], sReclaimed)
					l.cnt.Reclaims++
					l.maybeFlip(t, sim.FlipAbortReclaim)
					if !l.Blocking {
						x := t.Load(l.glock)
						if x&shNoSteal != 0 {
							t.CAS(l.glock, x, x&^uint64(shNoSteal))
						}
					}
					return
				}
				nn = t.SpinUntil(l.node(next)[shNext], func(v uint64) bool { return v != 0 })
			}
			t.Store(l.node(next)[shStatus], sReclaimed)
			l.cnt.Reclaims++
			l.maybeFlip(t, sim.FlipAbortReclaim)
			next = nn
			continue
		}
		if !roleDone && pol.PassRole() && (roleMine || l.e.Mem().Peek(n[shShuffler]) != 0) {
			if pol.UseHint() {
				if h := t.Load(n[shLastHint]); h != 0 && h != next && h != handle(t) {
					t.Store(l.node(next)[shLastHint], h)
				}
			}
			l.giveRole(t, next)
			// If this candidate abandons before our grant lands, the role
			// dies on its corpse — the cost of an abort, not a protocol
			// violation (a fresh round starts from the next head).
			roleDone = true
		}
		if t.CAS(l.node(next)[shStatus], st, sReady) {
			if l.Blocking && st == sParked {
				l.cnt.WakeupsInCS++
				t.Unpark(threadOf(l.e, next))
			}
			return
		}
		// The candidate's status moved underneath us — it abandoned (or a
		// shuffler changed its state); re-examine it.
	}
}

// LockAbort attempts the acquisition with a budget of virtual cycles — the
// simulator's mirror of the native LockTimeout, so the cost model covers
// the abandonment protocol too. It reports whether the lock was acquired;
// on failure the waiter's node has been abandoned in place (a reclaimer
// unlinks it later) and the thread enters limbo until then.
func (l *ShflLock) LockAbort(t *sim.Thread, budget uint64) bool {
	l.mayAbort = true
	if l.limbo == nil {
		l.limbo = make(map[int]bool)
	}
	deadline := t.Now() + budget
	if l.trySteal(t) {
		l.cnt.Acquires++
		return true
	}
	if l.limbo[t.ID()] && !l.waitReclaimUntil(t, deadline) {
		// The corpse from a previous attempt is still queued and the budget
		// ran out before anyone reclaimed it; the node cannot be reused.
		l.cnt.Aborts++
		return false
	}

	n := l.nodes.get(t)
	t.Store(n[shStatus], sWaiting)
	t.Store(n[shNext], 0)
	t.Store(n[shSocket], uint64(t.Socket()))
	t.Store(n[shBatch], 0)
	t.Store(n[shShuffler], 0)
	t.Store(n[shLastHint], 0)
	if l.prios != nil {
		t.Store(n[shPrio], l.prios[t.ID()])
	}

	prev := t.Swap(l.tail, handle(t))
	if prev != 0 {
		if !l.spinUntilAbortable(t, prev, n, deadline) {
			l.limbo[t.ID()] = true
			l.cnt.Aborts++
			return false
		}
	} else if !l.Blocking {
		t.FetchOr(l.glock, shNoSteal)
	}

	if l.Blocking {
		if qnext := t.Load(n[shNext]); qnext != 0 {
			l.setSpinning(t, qnext, false)
		}
	}

	roleMine := false
	for {
		if !roleMine && (t.Load(n[shBatch]) == 0 || t.Load(n[shShuffler]) != 0) {
			// One policy read per round, pinned for the whole walk.
			pol := shuffle.Pin(l.pol())
			roleMine = shuffle.Run(simSub{l, t}, pol, handle(t),
				shuffle.Input{Blocking: l.Blocking, VNext: true}).Retained
		}
		x := t.Load(l.glock)
		if x&0xff == 0 {
			if t.CAS(l.glock, x, x|shLocked) {
				break
			}
			continue
		}
		now := t.Now()
		if now >= deadline {
			// Head abdication: the head cannot abandon its node (nobody is
			// ahead to reclaim it), so it performs the MCS unlock phase
			// without ever taking the TAS lock and leaves cleanly. The
			// abdication walk pins its policy at entry, so a flip landing
			// here exercises the epoch fence at its sharpest.
			l.maybeFlip(t, sim.FlipHeadAbdication)
			l.passHead(t, n, roleMine)
			l.cnt.Aborts++
			return false
		}
		// Bounded spin slice instead of WatchWait: an open-ended watch
		// could sleep through the deadline.
		step := deadline - now
		if step > abortPoll {
			step = abortPoll
		}
		t.Delay(step)
	}
	if l.StealLocalOnly && l.lastSocket != 0 {
		t.Store(l.lastSocket, uint64(t.Socket())+1)
	}

	l.passHead(t, n, roleMine)
	l.cnt.Acquires++
	return true
}

// waitReclaimUntil waits (bounded by deadline) for this thread's abandoned
// node to be reclaimed, clearing limbo on success.
func (l *ShflLock) waitReclaimUntil(t *sim.Thread, deadline uint64) bool {
	st := l.nodes.get(t)[shStatus]
	for {
		if t.Load(st) == sReclaimed {
			delete(l.limbo, t.ID())
			return true
		}
		now := t.Now()
		if now >= deadline {
			return false
		}
		step := deadline - now
		if step > abortPoll {
			step = abortPoll
		}
		t.Delay(step)
	}
}

// spinUntilAbortable is spinUntilVeryNextWaiter with a deadline: on expiry
// the waiter abandons its node with a status CAS — exactly one of {grant,
// abandon} can win — and reports failure. Parking uses ParkTimeout so a
// sleeping waiter still honours its deadline.
func (l *ShflLock) spinUntilAbortable(t *sim.Thread, prev uint64, n []sim.Word, deadline uint64) bool {
	t.Store(l.node(prev)[shNext], handle(t))
	for {
		v := t.Load(n[shStatus])
		if v == sReady {
			return true
		}
		if t.Now() >= deadline {
			if t.CAS(n[shStatus], v, sAbandoned) {
				return false
			}
			// The status moved underneath the CAS: a grant may have won the
			// race — re-read and honour it.
			continue
		}
		if t.Load(n[shShuffler]) != 0 {
			pol := shuffle.Pin(l.pol())
			shuffle.Run(simSub{l, t}, pol, handle(t),
				shuffle.Input{Blocking: l.Blocking, VNext: false, FromRole: true})
			if t.Load(n[shShuffler]) != 0 {
				t.Delay(shufflePoll)
			}
			continue
		}
		if l.Blocking && v == sWaiting && t.NeedResched() {
			if t.NrRunning() > 1 {
				if t.CAS(n[shStatus], sWaiting, sParked) {
					l.cnt.Parks++
					rem := uint64(1)
					if now := t.Now(); now < deadline {
						rem = deadline - now
					}
					t.ParkTimeout(rem)
				}
				continue
			}
			t.Yield()
			continue
		}
		step := deadline - t.Now()
		if step > abortPoll {
			step = abortPoll
		}
		if step > 0 {
			t.Delay(step)
		}
	}
}

// Unlock releases the TAS lock with a byte store (Figure 4 spin_unlock).
func (l *ShflLock) Unlock(t *sim.Thread) {
	t.StorePartial(l.glock, 0xff, 0)
}

// TryLock is a single compare-and-swap thanks to lock-state decoupling.
func (l *ShflLock) TryLock(t *sim.Thread) bool {
	if t.Load(l.glock) == 0 && t.CAS(l.glock, 0, shLocked) {
		l.cnt.TrySuccess++
		l.cnt.Acquires++
		return true
	}
	l.cnt.TryFail++
	return false
}

// spinUntilVeryNextWaiter links into the predecessor and spins until
// granted head status, shuffling when handed the role, and parking under
// over-subscription in the blocking variant.
func (l *ShflLock) spinUntilVeryNextWaiter(t *sim.Thread, prev uint64, n []sim.Word) {
	t.Store(l.node(prev)[shNext], handle(t))
	for {
		v := t.Load(n[shStatus])
		if v == sReady {
			return
		}
		if t.Load(n[shShuffler]) != 0 {
			pol := shuffle.Pin(l.pol())
			shuffle.Run(simSub{l, t}, pol, handle(t),
				shuffle.Input{Blocking: l.Blocking, VNext: false, FromRole: true})
			if t.Load(n[shShuffler]) != 0 {
				// Still holding the role after an unproductive scan:
				// pace the retry loop (the real shuffler busy-polls).
				t.Delay(shufflePoll)
			}
			continue
		}
		if l.Blocking && v == sWaiting && t.NeedResched() {
			// Scheduling-aware parking: park only when the core is
			// over-subscribed, otherwise just yield (§4.2 "Scheduling-
			// aware parking strategy").
			if t.NrRunning() > 1 {
				if t.CAS(n[shStatus], sWaiting, sParked) {
					l.cnt.Parks++
					t.Park()
				}
				continue
			}
			t.Yield()
			continue
		}
		t.WatchWait(n[shStatus], v)
	}
}

// setSpinning moves a waiter to the spinning state, waking it if parked.
// Used by shufflers (off the critical path) and by the Figure 7 successor
// pre-wake.
func (l *ShflLock) setSpinning(t *sim.Thread, h uint64, byShuffler bool) {
	st := l.node(h)[shStatus]
	if t.CAS(st, sWaiting, sSpinning) {
		return
	}
	if t.CAS(st, sParked, sSpinning) {
		l.cnt.WakeupsOffCS++
		_ = byShuffler
		t.Unpark(threadOf(l.e, h))
	}
}

// ShflLockNBMaker registers the non-blocking ShflLock.
func ShflLockNBMaker() Maker {
	return Maker{
		Name: "shfllock-nb",
		New:  func(e *sim.Engine, tag string) Lock { return newShfl(e, tag, false) },
		Footprint: func(int) Footprint {
			return Footprint{PerLock: 12, PerWaiter: 28, PerHolder: 0}
		},
	}
}

// ShflLockBMaker registers the blocking ShflLock.
func ShflLockBMaker() Maker {
	return Maker{
		Name: "shfllock-b",
		New:  func(e *sim.Engine, tag string) Lock { return newShfl(e, tag, true) },
		Footprint: func(int) Footprint {
			return Footprint{PerLock: 12, PerWaiter: 28, PerHolder: 0}
		},
	}
}

// ShflLockBNUMAStealMaker registers the blocking variant that restricts
// stealing to the previous holder's socket (Figure 11d "ShflLock (NUMA)").
func ShflLockBNUMAStealMaker() Maker {
	return Maker{
		Name: "shfllock-b-numa",
		New: func(e *sim.Engine, tag string) Lock {
			l := newShfl(e, tag, true)
			l.StealLocalOnly = true
			l.lastSocket = e.Mem().AllocWord(tag + "/lastskt")
			return l
		},
		Footprint: func(int) Footprint {
			return Footprint{PerLock: 12, PerWaiter: 28, PerHolder: 0}
		},
	}
}

// ShflLockAblationMaker builds the Figure 11(e) factor-analysis variants.
// stage: 0=Base, 1=+Shuffler, 2=+Shufflers, 3=+qlast (see shuffle.Ablation).
func ShflLockAblationMaker(stage int) Maker {
	names := []string{"shfl-base", "shfl+shuffler", "shfl+shufflers", "shfl+qlast"}
	return Maker{
		Name: names[stage],
		New: func(e *sim.Engine, tag string) Lock {
			l := newShfl(e, tag, false)
			l.SetPolicy(shuffle.Ablation(stage), "init", 0)
			return l
		},
		Footprint: func(int) Footprint {
			return Footprint{PerLock: 12, PerWaiter: 28, PerHolder: 0}
		},
	}
}

// SetPriority records the scheduling priority the priority policy uses for
// the given thread (higher is more urgent). Only effective on locks built
// by ShflLockPriorityMaker.
func (l *ShflLock) SetPriority(threadID int, prio uint64) {
	if l.prios == nil {
		l.prios = make(map[int]uint64)
	}
	l.prios[threadID] = prio
}

// ShflLockPriorityMaker builds a non-blocking ShflLock whose shuffling
// policy groups waiters with higher priority than the shuffler directly
// behind the shuffled chain — the priority-inversion counter-measure the
// paper sketches in §7. Ties fall back to NUMA grouping, so the lock keeps
// its locality when priorities are uniform. The same shuffle.Priority
// policy runs on the native core locks via SetPolicy/LockWithPriority.
func ShflLockPriorityMaker() Maker {
	return Maker{
		Name: "shfllock-prio",
		New: func(e *sim.Engine, tag string) Lock {
			l := newShfl(e, tag, false)
			l.prios = make(map[int]uint64)
			l.SetPolicy(shuffle.Priority(), "init", 0)
			return l
		},
		Footprint: func(int) Footprint {
			return Footprint{PerLock: 12, PerWaiter: 32, PerHolder: 0}
		},
	}
}
