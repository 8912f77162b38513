package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shfllock/internal/shuffle"
)

// Live-transition torture for the native substrate. Two properties are on
// trial, both consequences of the epoched transition protocol:
//
//   - No torn policy reads: a walk runs entirely under the policy it pinned
//     at round start. The regression this guards is the old per-field read
//     pattern, where a SetPolicy landing mid-walk could mix one policy's
//     Match with another's budget — observable under -race as a data race,
//     and behaviorally as a dropped or duplicated waiter.
//   - The transition epoch never goes backward, whatever mix of swappers
//     and aborting waiters is in flight.
//
// Queue integrity is judged end to end, the same way policy_test does it: a
// lost wakeup deadlocks the test, a double grant breaks the plain counter.

// flipPolicies is the swap cycle the hammers drive; it crosses stage shapes
// (shuffling on/off, hints on/off, priorities on/off) so a torn read would
// have observable behavior to tear.
func flipPolicies() []shuffle.Policy {
	return []shuffle.Policy{
		shuffle.NUMA(),
		shuffle.Ablation(0), // base: no shuffling at all
		shuffle.Priority(),
		shuffle.Ablation(2), // shuffling + role passing, no hint
	}
}

// transitionLock is the surface under transition torture; all three native
// locks provide it.
type transitionLock interface {
	Lock()
	Unlock()
	TryLock() bool
	LockTimeout(d time.Duration) bool
	LockContext(ctx context.Context) error
	SetPolicy(p shuffle.Policy)
	PolicyEpoch() uint64
	Transitions() *shuffle.TransitionLog
}

// hammerTransitions drives workers through blocking, timed, and
// context-cancelled acquisitions while a flipper swaps the policy in a
// tight loop and a monitor asserts epoch monotonicity. Satellites (a) and
// (c) of the transition-protocol issue live here.
func hammerTransitions(t *testing.T, l transitionLock) {
	t.Helper()
	workers, iters := 8, 300
	if testing.Short() {
		workers, iters = 4, 80
	}
	stop := make(chan struct{})
	var aux sync.WaitGroup

	// The flipper: SetPolicy as fast as it can, through the whole cycle.
	aux.Add(1)
	go func() {
		defer aux.Done()
		pols := flipPolicies()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			l.SetPolicy(pols[i%len(pols)])
		}
	}()

	// The monitor: the fence only moves forward.
	aux.Add(1)
	go func() {
		defer aux.Done()
		last := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			e := l.PolicyEpoch()
			if e < last {
				t.Errorf("transition epoch went backward: %d after %d", e, last)
				return
			}
			last = e
		}
	}()

	// On a small machine the workers can finish their iterations before
	// the flipper is ever scheduled; past iters they keep going until two
	// transitions have landed (or the deadline passes and the epoch check
	// below fails), so flips always meet acquisitions in flight.
	deadline := time.Now().Add(10 * time.Second)
	flipping := func(i int) bool {
		return i < iters || (l.PolicyEpoch() < 2 && time.Now().Before(deadline))
	}

	counter := 0
	var granted atomic.Uint64 // successful acquisitions, all paths
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		id := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; flipping(i); i++ {
				switch (id + i) % 3 {
				case 0:
					l.Lock()
				case 1:
					// Budgets straddle the contention scale: some succeed,
					// some abort mid-queue, some abort at the head.
					if !l.LockTimeout(time.Duration(1+i%50) * time.Microsecond) {
						continue
					}
				case 2:
					ctx, cancel := context.WithTimeout(context.Background(),
						time.Duration(1+i%50)*time.Microsecond)
					err := l.LockContext(ctx)
					cancel()
					if err != nil {
						continue
					}
				}
				granted.Add(1)
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stop)
	aux.Wait()

	// A granted abandoned node (or any double grant) shows up as a data race
	// on counter under -race and as a lost update here; a grant that never
	// reached its waiter deadlocks above.
	if uint64(counter) != granted.Load() {
		t.Fatalf("counter=%d but %d grants: mutual exclusion broke under live transitions",
			counter, granted.Load())
	}
	if l.PolicyEpoch() < 2 {
		t.Fatalf("epoch=%d after the run; the flipper never landed a transition", l.PolicyEpoch())
	}
	if l.Transitions().Len() != l.PolicyEpoch() {
		t.Fatalf("log has %d transitions but epoch is %d; every Set must record exactly once",
			l.Transitions().Len(), l.PolicyEpoch())
	}
}

// TestTransitionHammer runs the live-transition torture on all three native
// locks (under -race via verify.sh).
func TestTransitionHammer(t *testing.T) {
	defer SetSockets(Sockets())
	SetSockets(2)
	t.Run("spin", func(t *testing.T) { hammerTransitions(t, new(SpinLock)) })
	t.Run("mutex", func(t *testing.T) { hammerTransitions(t, new(Mutex)) })
	t.Run("rwmutex", func(t *testing.T) { hammerTransitions(t, new(RWMutex)) })
}

// TestTransitionHammerRWWithReaders adds reader churn so policy flips land
// while the write path is draining readers.
func TestTransitionHammerRWWithReaders(t *testing.T) {
	defer SetSockets(Sockets())
	SetSockets(2)
	var rw RWMutex
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rw.RLockTimeout(10 * time.Microsecond) {
					rw.RUnlock()
				}
			}
		}()
	}
	hammerTransitions(t, &rw)
	close(stop)
	readers.Wait()
}

// TestTransitionPinnedRound pins the regression satellite directly: a round
// that started under policy A must complete under policy A even when the
// box moves on mid-round. The shflOracle hooks fire at round start and at
// head transfer; flipping inside them is the sharpest torn-read probe the
// native substrate has.
func TestTransitionPinnedRound(t *testing.T) {
	defer SetSockets(Sockets())
	SetSockets(2)
	var m Mutex
	pols := flipPolicies()
	var flips atomic.Uint64
	shflOracle.Store(&shflOracleHooks{
		roundBegin: func(*qnode, bool, bool) {
			n := flips.Add(1)
			m.SetPolicy(pols[n%uint64(len(pols))])
		},
		headEnter: func(*qnode) {
			n := flips.Add(1)
			m.SetPolicy(pols[n%uint64(len(pols))])
		},
	})
	defer shflOracle.Store(nil)

	counter := 0
	var granted atomic.Uint64
	var wg sync.WaitGroup
	workers, iters := 8, 200
	if testing.Short() {
		workers, iters = 4, 60
	}
	// Few acquisitions queue on a small machine: the holder yields on every
	// other pass so the others pile up behind it, and past iters the
	// workers keep going until contention has reached the hooks, within a
	// bound.
	deadline := time.Now().Add(10 * time.Second)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters || (flips.Load() == 0 && time.Now().Before(deadline)); i++ {
				m.Lock()
				counter++
				if i%2 == 0 {
					runtime.Gosched()
				}
				m.Unlock()
				granted.Add(1)
			}
		}()
	}
	wg.Wait()
	if uint64(counter) != granted.Load() {
		t.Fatalf("lost updates under forced mid-round flips: %d want %d", counter, granted.Load())
	}
	if flips.Load() == 0 {
		t.Skip("no contention reached the oracle hooks on this machine")
	}
}
