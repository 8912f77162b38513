// The all-lock tests iterate the lock registry, so every simulated lock —
// heap-node deployments, ablation stages and policy variants included —
// gets every run. They live in the external test package because lockreg
// imports simlocks.
package simlocks_test

import (
	"testing"

	"shfllock/internal/lockreg"
	"shfllock/internal/sim"
	"shfllock/internal/simlocks"
	"shfllock/internal/topology"
)

// mutexMakers returns the simulated mutex of every registry entry that has
// one.
func mutexMakers() []simlocks.Maker {
	var out []simlocks.Maker
	for _, e := range lockreg.All() {
		if mk, ok := e.SimMaker(); ok {
			out = append(out, mk)
		}
	}
	return out
}

// rwMakers returns the simulated RW lock of every registry entry that has
// one.
func rwMakers() []simlocks.RWMaker {
	var out []simlocks.RWMaker
	for _, e := range lockreg.All() {
		if mk, ok := e.SimRWMaker(); ok {
			out = append(out, mk)
		}
	}
	return out
}

// TestAllLocksMutualExclusion exercises every registered mutex at moderate
// contention on both machines, verifying mutual exclusion and completion.
func TestAllLocksMutualExclusion(t *testing.T) {
	for _, mk := range mutexMakers() {
		t.Run(mk.Name, func(t *testing.T) {
			simlocks.RunContention(t, mk, topology.Laptop(), 8, 40)
			simlocks.RunContention(t, mk, topology.Reference(), 48, 12)
		})
	}
}

// oversubscribe runs mk with 3x more threads than cores, ops acquisitions
// each, so preemption and parking paths are exercised, checking mutual
// exclusion; it returns the lock so callers can read its counters.
func oversubscribe(t *testing.T, mk simlocks.Maker, ops int) simlocks.Lock {
	topo := topology.Laptop()
	e := sim.NewEngine(sim.Config{Topo: topo, Seed: 9, HardStop: 8_000_000_000_000})
	l := mk.New(e, "lock")
	inCS := 0
	n := 3 * topo.Cores()
	for i := 0; i < n; i++ {
		e.Spawn("w", -1, func(th *sim.Thread) {
			th.Delay(uint64(th.Rng().Intn(100_000)))
			for k := 0; k < ops; k++ {
				l.Lock(th)
				inCS++
				if inCS != 1 {
					t.Errorf("%s: mutual exclusion violated", mk.Name)
				}
				th.Delay(uint64(500 + th.Rng().Intn(1000)))
				inCS--
				l.Unlock(th)
				th.Delay(uint64(th.Rng().Intn(500)))
			}
		})
	}
	e.Run()
	return l
}

// TestAllLocksOversubscribed runs every mutex with 3x more threads than
// cores so preemption and parking paths are exercised.
func TestAllLocksOversubscribed(t *testing.T) {
	for _, mk := range mutexMakers() {
		t.Run(mk.Name, func(t *testing.T) { oversubscribe(t, mk, 60) })
	}
}

// TestBlockingCapabilityMatchesParks checks each simulated mutex's
// CapBlocking declaration against what the lock does: oversubscribed, a
// blocking lock parks at least one waiter and a non-blocking one parks
// none. The run is twice TestAllLocksOversubscribed's, so waits outlast
// the scheduling quantum: ShflLock^B, CST and the Linux mutex park only
// once a spinning waiter is due for preemption. (RW locks are out of
// scope: the BRAVO wrapper keeps its own counters, not its inner lock's.)
func TestBlockingCapabilityMatchesParks(t *testing.T) {
	for _, e := range lockreg.All() {
		mk, ok := e.SimMaker()
		if !ok {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			parks := simlocks.StatsOf(oversubscribe(t, mk, 120)).Parks
			if e.Has(lockreg.CapBlocking) && parks == 0 {
				t.Errorf("%s declares blocking but parked no waiter oversubscribed", e.Name)
			}
			if !e.Has(lockreg.CapBlocking) && parks != 0 {
				t.Errorf("%s is not declared blocking but parked %d waiters", e.Name, parks)
			}
		})
	}
}

// TestAllLocksSingleThread checks the uncontended path of every mutex.
func TestAllLocksSingleThread(t *testing.T) {
	for _, mk := range mutexMakers() {
		t.Run(mk.Name, func(t *testing.T) {
			e := sim.NewEngine(sim.Config{Topo: topology.Laptop(), Seed: 1, HardStop: 1_000_000_000})
			l := mk.New(e, "lock")
			e.Spawn("solo", 0, func(th *sim.Thread) {
				for k := 0; k < 100; k++ {
					l.Lock(th)
					th.Delay(50)
					l.Unlock(th)
				}
			})
			e.Run()
			if st := simlocks.StatsOf(l); st != nil && st.Acquires != 100 {
				t.Errorf("acquires = %d, want 100", st.Acquires)
			}
		})
	}
}

// TestAllTryLocks verifies TryLock semantics for every mutex: succeeds on a
// free lock, fails on a held lock, and pairs with Unlock.
func TestAllTryLocks(t *testing.T) {
	for _, mk := range mutexMakers() {
		t.Run(mk.Name, func(t *testing.T) {
			e := sim.NewEngine(sim.Config{Topo: topology.Laptop(), Seed: 1, HardStop: 1_000_000_000})
			l := mk.New(e, "lock")
			e.Spawn("a", 0, func(th *sim.Thread) {
				if !l.TryLock(th) {
					t.Errorf("%s: TryLock on free lock failed", mk.Name)
				}
				th.Delay(100_000)
				l.Unlock(th)
			})
			e.Spawn("b", 1, func(th *sim.Thread) {
				th.Delay(20_000)
				if l.TryLock(th) {
					t.Errorf("%s: TryLock on held lock succeeded", mk.Name)
				}
				th.Delay(200_000)
				if !l.TryLock(th) {
					t.Errorf("%s: TryLock on released lock failed", mk.Name)
				}
				l.Unlock(th)
			})
			e.Run()
		})
	}
}

// runRWWorkload drives an RW lock with a mixed reader/writer population
// and validates the RW invariants: readers never overlap a writer, at most
// one writer at a time.
func runRWWorkload(t *testing.T, mk simlocks.RWMaker, topo topology.Machine, nthreads, ops, writePct int) {
	t.Helper()
	e := sim.NewEngine(sim.Config{Topo: topo, Seed: 3, HardStop: 8_000_000_000_000})
	l := mk.New(e, "rwlock")
	readers, writers := 0, 0
	maxReaders := 0
	for i := 0; i < nthreads; i++ {
		e.Spawn("w", -1, func(th *sim.Thread) {
			th.Delay(uint64(th.Rng().Intn(50_000)))
			for k := 0; k < ops; k++ {
				if th.Rng().Intn(100) < writePct {
					l.Lock(th)
					writers++
					if writers != 1 || readers != 0 {
						t.Errorf("%s: writer overlap (w=%d r=%d)", mk.Name, writers, readers)
					}
					th.Delay(400)
					writers--
					l.Unlock(th)
				} else {
					l.RLock(th)
					readers++
					if writers != 0 {
						t.Errorf("%s: reader overlaps writer", mk.Name)
					}
					if readers > maxReaders {
						maxReaders = readers
					}
					th.Delay(300)
					readers--
					l.RUnlock(th)
				}
				th.Delay(uint64(th.Rng().Intn(300)))
			}
		})
	}
	e.Run()
	if nthreads >= 8 && writePct <= 20 && maxReaders < 2 {
		t.Errorf("%s: readers never overlapped (maxReaders=%d)", mk.Name, maxReaders)
	}
}

// TestAllRWLocks exercises every RW lock at several write ratios.
func TestAllRWLocks(t *testing.T) {
	for _, mk := range rwMakers() {
		t.Run(mk.Name, func(t *testing.T) {
			runRWWorkload(t, mk, topology.Laptop(), 8, 40, 10)
			runRWWorkload(t, mk, topology.Laptop(), 8, 30, 50)
			runRWWorkload(t, mk, topology.Reference(), 32, 10, 1)
		})
	}
}

// TestRWLocksOversubscribed exercises parking paths of the blocking RW
// locks.
func TestRWLocksOversubscribed(t *testing.T) {
	topo := topology.Laptop()
	for _, mk := range rwMakers() {
		t.Run(mk.Name, func(t *testing.T) {
			runRWWorkload(t, mk, topo, 3*topo.Cores(), 25, 20)
		})
	}
}
