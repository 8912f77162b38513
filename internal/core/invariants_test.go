package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// invariantOracle implements the shflOracleHooks checks for the four
// shuffling invariants of DESIGN.md §4 on the native locks:
//
//  1. a relocated node is never the queue head (the lock holder's direct
//     successor keeps its position);
//  2. shuffling rounds never overlap (at most one active shuffler);
//  3. a fresh round (one not inherited through the shuffler role) is only
//     started by the queue head;
//  4. the shuffler role is only passed to a successor: directly to the
//     head's next waiter on relay, or to a node the round just marked.
//
// All hooks run under mu; the lock family calls them from many goroutines.
type invariantOracle struct {
	mu         sync.Mutex
	violations []string

	heads  map[*qnode]bool // nodes currently spinning as queue head
	active map[*qnode]bool // nodes currently inside a shuffling round

	rounds, freshRounds, roleRounds int
	moves, directHandoffs, roleHandoffs,
	headEnters, maxHeads int
}

func newInvariantOracle() *invariantOracle {
	return &invariantOracle{
		heads:  make(map[*qnode]bool),
		active: make(map[*qnode]bool),
	}
}

func (o *invariantOracle) violate(format string, args ...any) {
	if len(o.violations) < 20 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

// install registers the oracle's hooks; the caller must defer the returned
// teardown. Tests using it cannot run in parallel (the oracle is global and
// assumes a single lock instance is exercised).
func (o *invariantOracle) install() func() {
	hooks := &shflOracleHooks{
		headEnter: func(n *qnode) {
			o.mu.Lock()
			defer o.mu.Unlock()
			o.headEnters++
			if o.heads[n] {
				o.violate("node %p entered head tenure twice", n)
			}
			o.heads[n] = true
			if len(o.heads) > o.maxHeads {
				o.maxHeads = len(o.heads)
			}
		},
		headExit: func(n *qnode) {
			o.mu.Lock()
			defer o.mu.Unlock()
			if !o.heads[n] {
				o.violate("node %p exited head tenure it never entered", n)
			}
			delete(o.heads, n)
		},
		roundBegin: func(n *qnode, fromRole, atHead bool) {
			o.mu.Lock()
			defer o.mu.Unlock()
			o.rounds++
			if fromRole {
				o.roleRounds++
			} else {
				o.freshRounds++
				// Invariant 3: fresh rounds start only at the queue head.
				if !atHead {
					o.violate("fresh round started off the head path by %p", n)
				}
				if !o.heads[n] {
					o.violate("fresh round started by %p, which is not the queue head", n)
				}
			}
			// Invariant 2: no round may already be in flight.
			if len(o.active) != 0 {
				o.violate("round by %p overlaps %d active round(s)", n, len(o.active))
			}
			o.active[n] = true
		},
		roundEnd: func(n *qnode) {
			o.mu.Lock()
			defer o.mu.Unlock()
			if !o.active[n] {
				o.violate("round ended by %p without a matching begin", n)
			}
			delete(o.active, n)
		},
		moved: func(shuffler, moved *qnode) {
			o.mu.Lock()
			defer o.mu.Unlock()
			o.moves++
			// Invariant 1: the queue head (the lock holder's direct
			// successor) is never relocated.
			if o.heads[moved] {
				o.violate("shuffler %p relocated the queue head %p", shuffler, moved)
			}
			if moved == shuffler {
				o.violate("shuffler %p relocated itself", shuffler)
			}
			if !o.active[shuffler] {
				o.violate("shuffler %p relocated %p outside a round", shuffler, moved)
			}
		},
		handoff: func(from, to *qnode, direct bool) {
			o.mu.Lock()
			defer o.mu.Unlock()
			if to == from {
				o.violate("shuffler role handed from %p to itself", from)
			}
			if direct {
				o.directHandoffs++
				// Invariant 4 (relay): the head passes a still-held role only
				// to its direct successor.
				if next := from.next.Load(); next != to {
					o.violate("head %p relayed role to %p, not its successor %p", from, to, next)
				}
			} else {
				o.roleHandoffs++
				// Invariant 4 (shuffle): the role moves only to a successor
				// the round just marked into the shuffler's batch.
				if to.batch.Load() == 0 {
					o.violate("shuffler %p passed role to unmarked node %p", from, to)
				}
			}
		},
	}
	shflOracle.Store(hooks)
	return func() { shflOracle.Store(nil) }
}

func (o *invariantOracle) report(t *testing.T) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, v := range o.violations {
		t.Errorf("invariant violation: %s", v)
	}
	if len(o.heads) != 0 || len(o.active) != 0 {
		t.Errorf("unbalanced oracle state: %d head(s), %d active round(s) at quiescence",
			len(o.heads), len(o.active))
	}
	if o.maxHeads > 1 {
		t.Errorf("two nodes held head tenure at once (max %d)", o.maxHeads)
	}
	t.Logf("rounds=%d (fresh=%d from-role=%d) moves=%d handoffs(direct=%d role=%d) headEnters=%d",
		o.rounds, o.freshRounds, o.roleRounds, o.moves, o.directHandoffs, o.roleHandoffs, o.headEnters)
}

// drainNodePool retags future queue nodes: pooled nodes keep the socket they
// were created with, so tests that change SetSockets drop the pool to get
// fresh round-robin assignments.
func drainNodePool() {
	runtime.GC()
	runtime.GC()
}

// invariantHammer is like hammer but yields inside the critical section, so
// even on GOMAXPROCS=1 the other goroutines wake, pile up behind the lock,
// and form the multi-node queues shuffling operates on.
func invariantHammer(t *testing.T, l locker, goroutines, iters int) {
	t.Helper()
	var wg sync.WaitGroup
	counter := 0
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Lock()
				counter++
				if i%2 == 0 {
					runtime.Gosched()
				}
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("lost updates: %d != %d", counter, goroutines*iters)
	}
}

func runInvariantCheck(t *testing.T, l locker, wantMoves bool) {
	t.Helper()
	defer SetSockets(Sockets())
	SetSockets(2)
	drainNodePool()

	o := newInvariantOracle()
	defer o.install()()
	// Node relocations need a lucky mixed-socket queue; repeat the hammer
	// (events accumulate in the same oracle) until one shows up. On a
	// small machine queues form rarely, so the repeats are bounded by
	// time, not by a count that two CPUs can exhaust without a relocation.
	deadline := time.Now().Add(10 * time.Second)
	for attempt := 0; ; attempt++ {
		invariantHammer(t, l, 6, 40)
		if !wantMoves || o.moves > 0 || (attempt >= 9 && time.Now().After(deadline)) {
			break
		}
	}
	o.report(t)

	if o.rounds == 0 {
		t.Fatal("workload produced no shuffling rounds; invariants not exercised")
	}
	if o.directHandoffs == 0 {
		t.Error("workload produced no head relays; invariants not exercised")
	}
	if wantMoves && o.moves == 0 {
		t.Error("two-socket workload relocated no nodes; invariant 1 not exercised")
	}
}

func TestShuffleInvariantsSpinLock(t *testing.T) {
	var l SpinLock
	runInvariantCheck(t, &l, true)
}

func TestShuffleInvariantsMutex(t *testing.T) {
	var l Mutex
	runInvariantCheck(t, &l, true)
}

func TestShuffleInvariantsRWMutex(t *testing.T) {
	// The write side funnels through the internal ordering mutex, so the
	// same invariants apply; reader turbulence is added on top.
	defer SetSockets(Sockets())
	SetSockets(2)
	drainNodePool()

	var l RWMutex
	o := newInvariantOracle()
	defer o.install()()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l.RLock()
				l.RUnlock()
			}
		}()
	}
	invariantHammer(t, rwWriteSide{&l}, 5, 40)
	close(stop)
	wg.Wait()
	o.report(t)
	if o.rounds == 0 {
		t.Fatal("write-side workload produced no shuffling rounds")
	}
}

// rwWriteSide adapts RWMutex's write side to sync.Locker for hammer.
type rwWriteSide struct{ l *RWMutex }

func (w rwWriteSide) Lock()         { w.l.Lock() }
func (w rwWriteSide) Unlock()       { w.l.Unlock() }
func (w rwWriteSide) TryLock() bool { return w.l.TryLock() }
