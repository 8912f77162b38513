package runtimeq

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestRefreshTracksGOMAXPROCS is the heart of the stale-singleP regression:
// the cached Procs value must follow a GOMAXPROCS change after a Refresh
// (and therefore after at most one Tick epoch).
func TestRefreshTracksGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer func() {
		runtime.GOMAXPROCS(old)
		Refresh()
	}()

	runtime.GOMAXPROCS(3)
	Refresh()
	if got := Procs(); got != 3 {
		t.Fatalf("Procs() = %d after GOMAXPROCS(3)+Refresh, want 3", got)
	}
	if got := Buckets(); got != 3 {
		t.Fatalf("Buckets() = %d, want 3", got)
	}

	runtime.GOMAXPROCS(1)
	// No explicit Refresh: an epoch's worth of Ticks must pick it up.
	for i := 0; i < refreshEpoch+1; i++ {
		Tick()
	}
	if got := Procs(); got != 1 {
		t.Fatalf("Procs() = %d after GOMAXPROCS(1)+epoch of Ticks, want 1", got)
	}
}

// TestTickRefreshesWhenStale: a lock that queues only a handful of times
// never reaches the tick epoch, so the time bound must carry the update —
// one Tick after staleAfter has passed re-reads GOMAXPROCS.
func TestTickRefreshesWhenStale(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer func() {
		runtime.GOMAXPROCS(old)
		Refresh()
	}()

	target := 2
	if old == 2 {
		target = 3
	}
	Refresh()
	runtime.GOMAXPROCS(target)
	time.Sleep(2 * staleAfter)
	Tick()
	if got := Procs(); got != target {
		t.Fatalf("Procs() = %d after GOMAXPROCS(%d) and one Tick past the staleness bound, want %d",
			got, target, target)
	}
}

func TestOversubscribedFromGoroutineCount(t *testing.T) {
	defer Refresh()

	// Park enough goroutines to exceed factor*Procs by any margin, then
	// measure. They are idle, which is exactly the point: userspace can
	// only see the total count, and the factor is the documented slack.
	n := DefaultOversubFactor*Procs() + 64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); <-stop }()
	}
	Refresh()
	if !Oversubscribed() {
		t.Errorf("Oversubscribed() = false with %d extra goroutines over %d Ps", n, Procs())
	}
	if Goroutines() < n {
		t.Errorf("Goroutines() = %d, want >= %d", Goroutines(), n)
	}
	close(stop)
	wg.Wait()

	// Give the runtime a moment to retire the workers, then the verdict
	// must clear.
	deadline := time.Now().Add(5 * time.Second)
	for {
		Refresh()
		if !Oversubscribed() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Oversubscribed() still true %v after workers exited (%d goroutines)",
				5*time.Second, Goroutines())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestOversubOverride(t *testing.T) {
	defer ClearOversubOverride()
	OverrideOversub(true)
	if !Oversubscribed() {
		t.Error("override true not honored")
	}
	OverrideOversub(false)
	if Oversubscribed() {
		t.Error("override false not honored")
	}
	ClearOversubOverride()
}

// TestPGroupStableWithinP checks the stability property grouping relies on:
// consecutive probes from one goroutine (no migration forced between them)
// agree, and the value is always inside [0, Buckets()).
func TestPGroupStable(t *testing.T) {
	g0 := PGroup()
	for i := 0; i < 100; i++ {
		g := PGroup()
		if int(g) >= Buckets() {
			t.Fatalf("PGroup() = %d out of range [0,%d)", g, Buckets())
		}
		// On a single-P runtime the group is fully deterministic.
		if Procs() == 1 && g != g0 {
			t.Fatalf("PGroup() moved %d -> %d on a single-P runtime", g0, g)
		}
	}
}

func TestPGroupConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if g := PGroup(); int(g) >= Buckets() {
					t.Errorf("PGroup() = %d out of range", g)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestSetOversubFactor(t *testing.T) {
	defer SetOversubFactor(DefaultOversubFactor)
	// Factor 1: the test binary alone (test runner + our goroutines) may
	// or may not exceed it; just assert the setter recomputes and clamps.
	SetOversubFactor(0)
	if factor.Load() != 1 {
		t.Errorf("factor not clamped to 1, got %d", factor.Load())
	}
}
