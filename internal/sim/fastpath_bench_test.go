package sim

import (
	"math/rand"
	"testing"

	"shfllock/internal/topology"
)

// benchCharge times the engine's hottest edge: a sole thread charging many
// small steps. With the fast path every step is an in-place clock advance;
// without it every step is an event push plus an event-loop trip.
func benchCharge(b *testing.B, noFast bool) {
	e := NewEngine(Config{Topo: topology.Laptop(), Seed: 1, NoFastPath: noFast})
	e.Spawn("t", 0, func(th *Thread) {
		for i := 0; i < b.N; i++ {
			th.Delay(10)
		}
	})
	b.ResetTimer()
	e.Run()
}

func BenchmarkChargeFastPath(b *testing.B) {
	b.Run("fast", func(b *testing.B) { benchCharge(b, false) })
	b.Run("slow", func(b *testing.B) { benchCharge(b, true) })
}

// benchWatchWake times the spin-wait wake cycle: two threads on different
// cores ping-pong through watched words, so every iteration registers a
// watcher, fires a write notification, and hands the CPU over.
func benchWatchWake(b *testing.B, noFast bool) {
	e := NewEngine(Config{Topo: topology.Laptop(), Seed: 1, NoFastPath: noFast})
	ping := e.Mem().AllocWord("ping")
	pong := e.Mem().AllocWord("pong")
	e.Spawn("ping", 0, func(th *Thread) {
		for i := 0; i < b.N; i++ {
			th.Store(ping, uint64(i+1))
			th.SpinUntil(pong, func(v uint64) bool { return v == uint64(i+1) })
		}
	})
	e.Spawn("pong", 1, func(th *Thread) {
		for i := 0; i < b.N; i++ {
			th.SpinUntil(ping, func(v uint64) bool { return v == uint64(i+1) })
			th.Store(pong, uint64(i+1))
		}
	})
	b.ResetTimer()
	e.Run()
}

func BenchmarkWatchWake(b *testing.B) {
	b.Run("fast", func(b *testing.B) { benchWatchWake(b, false) })
	b.Run("slow", func(b *testing.B) { benchWatchWake(b, true) })
}

// Event-queue backend micro-benchmarks: the same pop-advance-push churn
// driven through the reference heap and the timer wheel, across the push
// distances the engine actually generates. "dense" is the dominant regime
// (resumes and rechecks within a few hundred cycles), "sparse" pushes past
// the wheel's dense horizon so every event takes the spill heap and
// migrates back, and "mixed" approximates a full sweep point's blend.
// Populations of a few hundred pending events match a full-subscription
// sweep point.

type queueBackend interface {
	pushAt(ev event, now uint64)
	popAt(now uint64) event
}

type heapBackend struct{ h eventHeap }

func (q *heapBackend) pushAt(ev event, now uint64) { q.h.push(ev) }
func (q *heapBackend) popAt(now uint64) event      { return q.h.pop() }

type wheelBackend struct{ w timerWheel }

func (q *wheelBackend) pushAt(ev event, now uint64) { q.w.push(ev, now) }
func (q *wheelBackend) popAt(now uint64) event      { return q.w.pop(now) }

// benchQueue churns a backend at a steady population of 256 events, with
// push distance drawn by delta. The simulated clock follows pop order, as
// in the engine.
func benchQueue(b *testing.B, q queueBackend, delta func(*rand.Rand) uint64) {
	rng := rand.New(rand.NewSource(1))
	var now, seq uint64
	for i := 0; i < 256; i++ {
		q.pushAt(event{at: now + delta(rng), seq: seq}, now)
		seq++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := q.popAt(now)
		now = ev.at
		ev.at = now + delta(rng)
		ev.seq = seq
		seq++
		q.pushAt(ev, now)
	}
}

func denseDelta(rng *rand.Rand) uint64  { return uint64(rng.Intn(300)) + 1 }
func sparseDelta(rng *rand.Rand) uint64 { return uint64(wheelSlots + rng.Intn(1<<16)) }
func mixedDelta(rng *rand.Rand) uint64 {
	if rng.Intn(10) < 9 {
		return denseDelta(rng)
	}
	return sparseDelta(rng)
}

func BenchmarkEventQueue(b *testing.B) {
	deltas := []struct {
		name string
		fn   func(*rand.Rand) uint64
	}{{"dense", denseDelta}, {"sparse", sparseDelta}, {"mixed", mixedDelta}}
	for _, d := range deltas {
		b.Run("heap/"+d.name, func(b *testing.B) { benchQueue(b, &heapBackend{}, d.fn) })
		b.Run("wheel/"+d.name, func(b *testing.B) {
			q := &wheelBackend{}
			q.w.init()
			benchQueue(b, q, d.fn)
		})
	}
}

// BenchmarkEventHeap is the original heap-churn benchmark, kept for
// comparability with earlier recorded numbers.
func BenchmarkEventHeap(b *testing.B) {
	var h eventHeap
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 256; i++ {
		h.push(event{at: uint64(rng.Intn(1 << 20)), seq: uint64(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := h.pop()
		ev.at += uint64(rng.Intn(1024)) + 1
		ev.seq = uint64(256 + i)
		h.push(ev)
	}
}

// benchHandoff times one CPU transfer between threads: two threads pinned
// to one core alternate Yield, so every Yield hands the core to the other
// thread — through tryHandoff in fast mode, through a dispatch event and
// the event loop in slow mode. ns/transfer counts only the Yields that
// actually switched threads.
func benchHandoff(b *testing.B, noFast bool) {
	e := NewEngine(Config{Topo: topology.Laptop(), Seed: 1, NoFastPath: noFast})
	last, transfers := -1, 0
	body := func(th *Thread) {
		for i := 0; i < b.N/2; i++ {
			th.Yield()
			if last != th.ID() {
				transfers++
				last = th.ID()
			}
		}
	}
	e.Spawn("a", 0, body)
	e.Spawn("b", 0, body)
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	if transfers > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(transfers), "ns/transfer")
	}
}

func BenchmarkHandoff(b *testing.B) {
	b.Run("fast", func(b *testing.B) { benchHandoff(b, false) })
	b.Run("slow", func(b *testing.B) { benchHandoff(b, true) })
}
