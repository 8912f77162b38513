package simlocks

import (
	"testing"

	"shfllock/internal/sim"
	"shfllock/internal/topology"
)

// runContention spins up nthreads hammering one lock and returns total ops
// completed and the virtual duration. Each critical section touches shared
// data words (cache-line movement inside the CS, factor F1) plus fixed
// compute.
func runContention(t *testing.T, mk Maker, topo topology.Machine, nthreads, opsPerThread int) (ops uint64, dur uint64) {
	t.Helper()
	e := sim.NewEngine(sim.Config{Topo: topo, Seed: 1, HardStop: 2_000_000_000_000})
	l := mk.New(e, "lock")
	data := e.Mem().Alloc("csdata", 4)
	inCS := 0
	var total uint64
	for i := 0; i < nthreads; i++ {
		e.Spawn("w", -1, func(th *sim.Thread) {
			th.Delay(uint64(th.Rng().Intn(100_000))) // scramble arrival order
			for k := 0; k < opsPerThread; k++ {
				l.Lock(th)
				inCS++
				if inCS != 1 {
					t.Errorf("%s: mutual exclusion violated", mk.Name)
				}
				for _, w := range data {
					th.Store(w, th.Load(w)+1)
				}
				th.Delay(uint64(250 + th.Rng().Intn(100)))
				inCS--
				l.Unlock(th)
				th.Delay(uint64(150 + th.Rng().Intn(100)))
				total++
			}
		})
	}
	e.Run()
	if v := e.Mem().Peek(data[0]); v != uint64(nthreads*opsPerThread) {
		t.Errorf("%s: cs data = %d, want %d", mk.Name, v, nthreads*opsPerThread)
	}
	return total, e.Now()
}

// throughput returns ops per million cycles for a configuration.
func throughput(t *testing.T, mk Maker, topo topology.Machine, nthreads, ops int) float64 {
	n, d := runContention(t, mk, topo, nthreads, ops)
	return float64(n) / (float64(d) / 1e6)
}

func TestTASMutualExclusion(t *testing.T) {
	runContention(t, TASMaker(), topology.Laptop(), 8, 50)
}

func TestTicketMutualExclusion(t *testing.T) {
	runContention(t, TicketMaker(), topology.Laptop(), 8, 50)
}

func TestMCSMutualExclusion(t *testing.T) {
	runContention(t, MCSMaker(), topology.Laptop(), 8, 50)
}

func TestTicketIsFIFO(t *testing.T) {
	e := sim.NewEngine(sim.Config{Topo: topology.Laptop(), Seed: 1, HardStop: 1_000_000_000})
	l := TicketMaker().New(e, "l")
	var order []int
	gate := e.Mem().AllocWord("gate")
	for i := 0; i < 4; i++ {
		e.Spawn("w", i, func(th *sim.Thread) {
			// Stagger arrivals deterministically.
			th.Delay(uint64(1+th.ID()) * 10_000)
			if th.ID() == 0 {
				l.Lock(th)
				th.Store(gate, 1)
				th.Delay(200_000) // let others queue up in arrival order
				order = append(order, 0)
				l.Unlock(th)
				return
			}
			th.SpinUntil(gate, func(v uint64) bool { return v == 1 })
			th.Delay(uint64(th.ID()) * 5_000)
			l.Lock(th)
			order = append(order, th.ID())
			l.Unlock(th)
		})
	}
	e.Run()
	for i, id := range order {
		if id != i {
			t.Fatalf("ticket lock not FIFO: %v", order)
		}
	}
}

// The headline emergent behavior: at single-thread the simple locks win or
// tie, and at full machine contention MCS must beat TAS clearly (queue
// locks exist for a reason), while TAS wins or ties at 1-2 threads.
func TestMCSBeatsTASUnderContention(t *testing.T) {
	topo := topology.Reference()
	tas1 := throughput(t, TASMaker(), topo, 1, 400)
	mcs1 := throughput(t, MCSMaker(), topo, 1, 400)
	tasN := throughput(t, TASMaker(), topo, 96, 40)
	mcsN := throughput(t, MCSMaker(), topo, 96, 40)

	if tas1 < mcs1*0.95 {
		t.Errorf("single-thread: TAS (%.1f) should not lose to MCS (%.1f)", tas1, mcs1)
	}
	if mcsN < tasN*1.2 {
		t.Errorf("96 threads: MCS (%.1f) should clearly beat TAS (%.1f)", mcsN, tasN)
	}
}

func TestTryLock(t *testing.T) {
	for _, mk := range []Maker{TASMaker(), TicketMaker(), MCSMaker()} {
		e := sim.NewEngine(sim.Config{Topo: topology.Laptop(), Seed: 1, HardStop: 1_000_000_000})
		l := mk.New(e, "l")
		e.Spawn("a", 0, func(th *sim.Thread) {
			if !l.TryLock(th) {
				t.Errorf("%s: TryLock on free lock failed", mk.Name)
			}
			th.Delay(100_000)
			l.Unlock(th)
		})
		e.Spawn("b", 1, func(th *sim.Thread) {
			th.Delay(10_000) // while a holds it
			if l.TryLock(th) {
				t.Errorf("%s: TryLock on held lock succeeded", mk.Name)
			}
			th.Delay(200_000) // after a released it
			if !l.TryLock(th) {
				t.Errorf("%s: TryLock on released lock failed", mk.Name)
			}
			l.Unlock(th)
		})
		e.Run()
	}
}
