package core

import (
	"runtime"
	"sync/atomic"
	"time"

	"shfllock/internal/runtimeq"
	"shfllock/internal/shuffle"
)

// glock bit layout: bit 0 = locked, bit 8 = no-stealing.
const (
	glkLocked  uint32 = 1
	glkNoSteal uint32 = 1 << 8
)

// shflState is the 12-byte-equivalent lock state shared by the
// non-blocking and blocking ShflLocks: a TAS word plus the waiter-queue
// tail. All policy work happens in the waiters (shuffling), driven by the
// internal/shuffle engine over a pluggable policy.
type shflState struct {
	glock atomic.Uint32
	tail  atomic.Pointer[qnode]
	// probe, when non-nil, receives internal lock events (see Probe).
	// Written by SetProbe before the lock is shared; read with plain
	// loads on the lock paths so a nil probe costs one branch.
	probe Probe
	// policy is the epoched policy holder: SetPolicy may be called at any
	// time, under any contention. Every walk (shuffle round, grant walk,
	// head abdication) reads it exactly once through roundPol and runs
	// entirely under that read — the transition protocol's epoch fence.
	// An empty box means the default NUMA policy.
	policy shuffle.PolicyBox
	// mayAbort latches to true on the first abortable acquisition and gates
	// the abandoned-node handling in shuffling rounds (shuffle.Substrate
	// MayAbort): locks that never see LockTimeout/LockContext pay nothing.
	mayAbort atomic.Bool
	// goro marks the goroutine-native variant (NewGoroMutex & co.): queue
	// nodes are re-stamped with an approximate P bucket on every
	// acquisition, and waiting turns deferential under oversubscription —
	// park after a few spins instead of spinBudget, and the unparkable
	// spins (queue head on the TAS word) hand their timeslice back with a
	// short sleep instead of a Gosched round trip through a saturated run
	// queue. Written before the lock is shared, like probe and policy.
	goro bool
}

func (l *shflState) pol() shuffle.Policy {
	if p := l.policy.Get(); p != nil {
		return p
	}
	return defaultPolicy
}

// roundPol reads the policy box exactly once and pins composite policies
// (shuffle.Meta) to their current stage. The returned value is held for one
// complete walk — a shuffle round, the grant walk, or a head abdication —
// so a concurrent SetPolicy can never tear Match/Budget/WakeGrouped apart.
func (l *shflState) roundPol() shuffle.Policy {
	return shuffle.Pin(l.pol())
}

// setPolicy is the one native path that installs a policy: an epoched
// transition recorded with the caller's trigger. nil restores the default.
func (l *shflState) setPolicy(p shuffle.Policy, trigger string) {
	l.policy.Set(p, trigger, uint64(time.Now().UnixNano()))
}

// trySteal is the TAS fast path; with stealing permitted it also barges
// past a populated queue.
func (l *shflState) trySteal() bool {
	return l.glock.Load() == 0 && l.glock.CompareAndSwap(0, glkLocked)
}

// tryLock attempts a single CAS — cheap because the lock state is
// decoupled from the queue.
func (l *shflState) tryLock() bool {
	if l.glock.Load() != 0 || !l.glock.CompareAndSwap(0, glkLocked) {
		return false
	}
	if p := l.probe; p != nil && l.tail.Load() != nil {
		p.Steal(true)
	}
	return true
}

// unlock releases the TAS lock, preserving the no-stealing bit.
func (l *shflState) unlock() {
	for {
		v := l.glock.Load()
		if l.glock.CompareAndSwap(v, v&^glkLocked) {
			return
		}
	}
}

// lock acquires via fast path or the shuffled waiter queue (Figure 4 / 6).
func (l *shflState) lock(blocking bool, prio uint64) {
	l.lockAbort(blocking, prio, nil)
}

// lockAbort is the full acquisition path: the plain lock with a == nil, the
// abortable one (LockTimeout/LockContext) otherwise. It returns false only
// when the aborter expired before the lock was acquired; the caller's queue
// node is then either abandoned in place (mid-queue — a shuffler or a later
// grant walk reclaims it) or already retired (at the head, which cannot
// abandon and instead abdicates by running the grant walk lockless).
func (l *shflState) lockAbort(blocking bool, prio uint64, a *aborter) bool {
	if l.trySteal() {
		if p := l.probe; p != nil && l.tail.Load() != nil {
			p.Steal(false)
		}
		return true
	}
	if a != nil {
		// Arm the abandoned-node handling in shuffling rounds before this
		// acquisition can possibly leave a corpse in the queue.
		l.mayAbort.Store(true)
	}
	n := getNode()
	if l.goro {
		// Re-stamp the recycled node with the acquirer's current P bucket
		// before tail publication. The creation-time stamp is whatever the
		// node's first user had — on goroutines that is noise, and grouping
		// by noise is what broke group-identity stability.
		n.group.Store(runtimeq.PGroup())
	}
	n.prio = prio
	prev := l.tail.Swap(n)
	if prev != nil {
		if !l.spinUntilVeryNextWaiter(blocking, prev, n, a) {
			// Abandoned mid-queue. The node must never return to the pool:
			// predecessors and shufflers may still hold references, and only
			// the reclaimer's sReclaimed store ends its queue life. The
			// garbage collector picks it up after that.
			if p := l.probe; p != nil {
				p.Abort()
			}
			return false
		}
	} else if !blocking {
		// Preserve FIFO while a queue exists; the blocking variant keeps
		// stealing enabled so the lock stays live across wakeup latency.
		l.glock.Or(glkNoSteal)
	}
	if o := shflOracle.Load(); o != nil && o.headEnter != nil {
		o.headEnter(n)
	}

	if blocking {
		// Figure 7: pre-wake the successor off the critical path.
		if nx := n.next.Load(); nx != nil {
			l.setSpinning(nx)
		}
	}

	// Head of the queue: grab the TAS lock the moment it is free; shuffle
	// while it is held. An unproductive round retains the role (roleMine)
	// without rescanning per iteration; the head relays role and frontier
	// to its successor when it acquires.
	//
	// Starvation fence: the blocking variant keeps TAS stealing enabled so
	// the lock stays live across wakeup latencies, but on a saturated
	// machine (few cores, steal-heavy callers) the free windows and the
	// head's timeslices can anti-correlate indefinitely — every release is
	// re-stolen before the head ever observes it. After headFenceBudget
	// fruitless spins the head raises glkNoSteal, which fails trySteal and
	// tryLock outright (they require the whole word to be zero), so the very
	// next release can only go to the queue. The fence is strictly
	// head-local for the blocking variant: cleared atomically by the
	// acquisition CAS, or explicitly on abdication. The non-blocking variant
	// manages the same bit with queue lifetime (set at 112, cleared by
	// passHead when the queue empties) and never takes this path.
	roleMine := false
	spins := 0
	fenced := false
	for {
		v := l.glock.Load()
		if v&0xff == 0 {
			nv := v | glkLocked
			if fenced {
				nv &^= glkNoSteal
			}
			if l.glock.CompareAndSwap(v, nv) {
				break
			}
			spins++
			l.pace(spins)
			continue
		}
		if a != nil && spins&7 == 0 && a.expired() {
			// The head owns the MCS unlock obligation (and, non-blocking,
			// the no-steal bit), so it cannot abandon in place: abdicate by
			// performing the unlock phase without ever taking the TAS lock.
			if fenced {
				l.clearNoSteal()
			}
			if o := shflOracle.Load(); o != nil && o.headExit != nil {
				o.headExit(n)
			}
			l.passHead(blocking, roleMine, n)
			if p := l.probe; p != nil {
				p.Abort()
			}
			return false
		}
		if !roleMine && (n.batch.Load() == 0 || n.shuffler.Load() != 0) {
			fromRole := n.shuffler.Load() != 0
			pol := l.roundPol()
			roleMine = shuffle.Run(coreSub{l: l, self: n, pol: pol}, pol, n,
				shuffle.Input{Blocking: blocking, VNext: true, FromRole: fromRole}).Retained
			if l.glock.Load()&0xff == 0 {
				continue
			}
		}
		spins++
		l.pace(spins)
		if blocking && !fenced && spins > headFenceBudget {
			l.glock.Or(glkNoSteal)
			fenced = true
		}
	}
	if o := shflOracle.Load(); o != nil && o.headExit != nil {
		o.headExit(n)
	}

	granted := l.passHead(blocking, roleMine, n)
	if p := l.probe; p != nil {
		p.Contended()
		if granted {
			p.Handoff()
		}
	}
	return true
}

// passHead is the MCS unlock phase, moved to the acquire side: hand head
// status to the first live successor — skipping and reclaiming abandoned
// nodes — or empty the queue. It returns true when a successor was granted.
// The caller's node n goes back to the pool; abandoned nodes never do (see
// lockAbort).
//
// The grant is a status CAS, not a blind swap: it races against the
// successor's own abandonment CAS on the same word, so exactly one of
// {grant, abandon} wins. An abandoned successor's next link is read before
// its sReclaimed store is published — the protocol is shared with the
// simulator substrate, where the owner thread reuses its node the moment it
// observes the reclaimed store, and a reused node's link would point into a
// different part of the queue.
//
// The walk pins its policy at entry (one roundPol read): abdication and
// reclaim both run entirely under the epoch observed here, so a transition
// landing mid-walk takes effect on the next walk, never inside this one.
func (l *shflState) passHead(blocking, roleMine bool, n *qnode) bool {
	pol := l.roundPol()
	cur := n
	var relayed *qnode
	for {
		next := cur.next.Load()
		if next == nil {
			if l.tail.CompareAndSwap(cur, nil) {
				if !blocking {
					l.clearNoSteal()
				}
				putNode(n)
				return false
			}
			for next = cur.next.Load(); next == nil; next = cur.next.Load() {
				runtime.Gosched()
			}
		}
		st := next.status.Load()
		if st == sAbandoned {
			nn := next.next.Load()
			if nn == nil {
				// Abandoned tail: retire it with the same tail CAS an empty
				// queue gets; on failure a joiner is mid-link — wait it out.
				if l.tail.CompareAndSwap(next, nil) {
					next.status.Store(sReclaimed)
					if p := l.probe; p != nil {
						p.Reclaim()
					}
					if !blocking {
						l.clearNoSteal()
					}
					putNode(n)
					return false
				}
				for nn = next.next.Load(); nn == nil; nn = next.next.Load() {
					runtime.Gosched()
				}
			}
			next.status.Store(sReclaimed)
			if p := l.probe; p != nil {
				p.Reclaim()
			}
			cur = next
			continue
		}
		// Relay a still-held shuffler role (and scan frontier) to the
		// successor — once per candidate, before the grant: after it the
		// successor may leave the queue at any moment.
		if next != relayed && pol.PassRole() && (roleMine || n.shuffler.Load() != 0) {
			if pol.UseHint() {
				// A hint this walk reclaimed is outside the queue: resuming a
				// scan from it could splice the dead node back in, and the
				// grant that later lands on it wakes nobody.
				if h := n.lastHint.Load(); h != nil && h != next && h != n && h.status.Load() != sReclaimed {
					next.lastHint.Store(h)
				}
			}
			if o := shflOracle.Load(); o != nil && o.handoff != nil {
				o.handoff(n, next, true)
			}
			next.shuffler.Store(1)
			relayed = next
		}
		if next.status.CompareAndSwap(st, sReady) {
			if blocking && st == sParked {
				next.wakeNode()
				if p := l.probe; p != nil {
					p.Unpark(true)
				}
			}
			putNode(n)
			return true
		}
		// The successor's status moved under the grant (a shuffler's
		// spinning mark, a park, or an abandonment): reload and redecide.
	}
}

// testHookGlkClearRace, when non-nil, runs inside clearNoSteal's
// load-to-CAS window. It exists only so tests can deterministically land a
// concurrent glock update in that window and prove the clear must retry: a
// single CAS attempt loses the race and leaves stealing disabled forever.
var testHookGlkClearRace func(l *shflState)

// clearNoSteal re-enables TAS stealing after the last queued waiter has
// left the queue. The clear must not be a single CAS attempt: any glock
// update landing between the load and the CAS — an unlock/relock cycle of
// a TAS stealer, or a TryLock racing into the window — fails the CAS, and
// a lost clear is permanent on a lock whose remaining users only TryLock:
// with glkNoSteal stuck, trySteal and tryLock see a non-zero word and fail
// forever even though the lock is free. Retry until the bit is observed
// clear.
func (l *shflState) clearNoSteal() {
	for {
		v := l.glock.Load()
		if v&glkNoSteal == 0 {
			return
		}
		if h := testHookGlkClearRace; h != nil {
			h(l)
		}
		if l.glock.CompareAndSwap(v, v&^glkNoSteal) {
			return
		}
	}
}

// goroOversubSpinBudget replaces spinBudget for goro-family waiters while
// the runtime is oversubscribed: with more runnable goroutines than Ps,
// every pre-park spin iteration statistically displaces a runnable
// goroutine (plausibly the holder), so waiters commit to the park channel
// almost immediately. The handoff-latency argument for the long budget
// (footnote 3) assumes the spin happens on an otherwise idle CPU.
const goroOversubSpinBudget = 4

// parkBudget is the pre-park spin budget for one blocking waiter.
func (l *shflState) parkBudget() int {
	if l.goro && runtimeq.Oversubscribed() {
		return goroOversubSpinBudget
	}
	return spinBudget
}

// pace paces iteration i of an unparkable spin (the queue head watching
// the TAS word). The goro family under oversubscription sleeps briefly
// instead of yielding: a Gosched is a round trip through a saturated run
// queue that re-runs this spinner ahead of goroutines that could make
// actual progress, while a short sleep donates the timeslice outright at
// a bounded cost to handoff latency. Other locks keep spinWait behavior.
func (l *shflState) pace(i int) {
	if l.goro && i%16 == 0 && i > 16 && runtimeq.Oversubscribed() {
		time.Sleep(50 * time.Microsecond)
		return
	}
	spinWait(i)
}

// spinUntilVeryNextWaiter links behind prev and waits for head status,
// shuffling when handed the role and parking after the spin budget in the
// blocking variant. With a non-nil aborter it returns false if the wait
// expired first; the node is then marked sAbandoned and stays in the queue
// for a reclaimer.
func (l *shflState) spinUntilVeryNextWaiter(blocking bool, prev, n *qnode, a *aborter) bool {
	prev.next.Store(n)
	spins := 0
	for {
		v := n.status.Load()
		if v == sReady {
			return true
		}
		if a != nil && spins&7 == 0 && a.expired() {
			if l.abandon(n) {
				return false
			}
			// Lost the race to a concurrent grant: we are the head now.
			continue
		}
		if n.shuffler.Load() != 0 {
			// One policy read per round: the walk below never re-reads, so a
			// concurrent transition cannot tear it.
			pol := l.roundPol()
			shuffle.Run(coreSub{l: l, self: n, pol: pol}, pol, n,
				shuffle.Input{Blocking: blocking, VNext: false, FromRole: true})
			continue
		}
		spins++
		if spins%8 == 0 {
			if l.goro && v == sWaiting && spins > 64 && runtimeq.Oversubscribed() {
				// Non-blocking goro waiters cannot park; donate the slice
				// instead of cycling through the saturated run queue. A
				// shuffler-marked (sSpinning) node keeps yielding: its
				// grant is imminent.
				time.Sleep(50 * time.Microsecond)
			} else {
				runtime.Gosched()
			}
		}
		if blocking && v == sWaiting && spins > l.parkBudget() {
			if n.status.CompareAndSwap(sWaiting, sParked) {
				if p := l.probe; p != nil {
					p.Park()
				}
				n.parkAbortable(a)
			}
			spins = 0
		}
	}
}

// abandon CASes the waiter's status from any waiting state to sAbandoned.
// It fails (returns false) only when a granter won the race and the node is
// already the queue head — the caller must then proceed as head.
func (l *shflState) abandon(n *qnode) bool {
	for {
		v := n.status.Load()
		if v == sReady {
			return false
		}
		if n.status.CompareAndSwap(v, sAbandoned) {
			return true
		}
	}
}

// setSpinning moves a waiter into the spinning state, waking it if parked
// (shuffler wakeup policy, Figure 6).
func (l *shflState) setSpinning(n *qnode) {
	if n.status.CompareAndSwap(sWaiting, sSpinning) {
		return
	}
	if n.status.CompareAndSwap(sParked, sSpinning) {
		n.wakeNode()
		if p := l.probe; p != nil {
			p.Unpark(false)
		}
	}
}

// SpinLock is the non-blocking ShflLock (ShflLock^NB): a NUMA-aware
// spinlock with a 12-byte-equivalent footprint, single-CAS TryLock, and
// waiter-driven queue shuffling. The zero value is an unlocked SpinLock.
type SpinLock struct {
	s shflState
}

// Lock acquires the spinlock.
func (l *SpinLock) Lock() { l.s.lock(false, 0) }

// LockWithPriority acquires the spinlock with a scheduling priority
// (higher is more urgent). Only meaningful under a priority policy (see
// SetPolicy and shuffle.Priority); other policies ignore it.
func (l *SpinLock) LockWithPriority(prio uint64) { l.s.lock(false, prio) }

// Unlock releases the spinlock.
func (l *SpinLock) Unlock() { l.s.unlock() }

// TryLock attempts the acquisition with a single compare-and-swap.
func (l *SpinLock) TryLock() bool { return l.s.tryLock() }

// SetPolicy replaces the shuffling policy (default: NUMA grouping) through
// the epoched transition protocol: safe at any time, under any contention.
// Passing nil restores the default.
func (l *SpinLock) SetPolicy(p shuffle.Policy) { l.s.setPolicy(p, "api") }

// Transitions exposes the lock's policy transition record.
func (l *SpinLock) Transitions() *shuffle.TransitionLog { return l.s.policy.Log() }

// PolicyEpoch returns the current transition fence value (monotone).
func (l *SpinLock) PolicyEpoch() uint64 { return l.s.policy.Epoch() }

// Mutex is the blocking ShflLock (ShflLock^B): waiters spin briefly and
// then park; shufflers wake parked waiters that are about to get the lock,
// off the critical path; the TAS fast path permits stealing so the lock
// stays live across wakeup latencies. The zero value is an unlocked Mutex.
type Mutex struct {
	s shflState
}

// Lock acquires the mutex, parking under contention.
func (m *Mutex) Lock() { m.s.lock(true, 0) }

// LockWithPriority acquires the mutex with a scheduling priority (higher
// is more urgent). Only meaningful under a priority policy (see SetPolicy
// and shuffle.Priority); other policies ignore it.
func (m *Mutex) LockWithPriority(prio uint64) { m.s.lock(true, prio) }

// Unlock releases the mutex.
func (m *Mutex) Unlock() { m.s.unlock() }

// TryLock attempts the acquisition with a single compare-and-swap.
func (m *Mutex) TryLock() bool { return m.s.tryLock() }

// SetPolicy replaces the shuffling policy (default: NUMA grouping) through
// the epoched transition protocol: safe at any time, under any contention.
// Passing nil restores the default.
func (m *Mutex) SetPolicy(p shuffle.Policy) { m.s.setPolicy(p, "api") }

// Transitions exposes the lock's policy transition record.
func (m *Mutex) Transitions() *shuffle.TransitionLog { return m.s.policy.Log() }

// PolicyEpoch returns the current transition fence value (monotone).
func (m *Mutex) PolicyEpoch() uint64 { return m.s.policy.Epoch() }
