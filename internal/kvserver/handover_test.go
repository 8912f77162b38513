package kvserver

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shfllock/internal/lockstat"
)

func newTestRegistry() *lockstat.Registry {
	r := lockstat.NewRegistry()
	r.SetEnabled(true)
	return r
}

// TestHandoverTorture is the shard-handover torture: readers, writers and
// scanners hammer one shard with short, randomly cancelled deadlines while
// a flipper goroutine swaps the shard's lock through every implementation
// as fast as the drain allows — including across lock *families*
// (shfl <-> sync), which is harsher than anything the adaptive controller
// does. Assertions:
//
//   - the live detector sees zero mutual-exclusion violations;
//   - the plain seq counter (written only under the write lock) matches
//     the number of successful write sections exactly — a lost update or a
//     stray grant on a drained generation would break the equality, and
//     -race would flag the overlap;
//   - every shard op terminates (a leaked lock generation would hang the
//     test against its deadline).
//
// Run it under -race; verify.sh does.
func TestHandoverTorture(t *testing.T) {
	var violations atomic.Uint64
	reg := newTestRegistry()
	sh, err := newShard(ImplShflRW, reg.Site("torture"), &violations)
	if err != nil {
		t.Fatal(err)
	}

	duration := 800 * time.Millisecond
	minFlips := 20
	if raceEnabled {
		// The race detector slows a drain by orders of magnitude; keep the
		// torture honest but calibrated to instrumented speed.
		duration = 2 * time.Second
		minFlips = 3
	}
	if testing.Short() {
		duration = 200 * time.Millisecond
		minFlips = 5
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writeSections atomic.Uint64 // successful write ops, counted by the workers

	worker := func(seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ctx, cancel := context.WithTimeout(context.Background(),
				time.Duration(10+rng.Intn(300))*time.Microsecond)
			if rng.Intn(8) == 0 {
				// Concurrent cancellation racing the grant, not just expiry.
				go cancel()
			}
			key := fmt.Sprintf("t%03d", rng.Intn(200))
			switch rng.Intn(10) {
			case 0, 1, 2:
				if err := sh.put(ctx, key, "v"); err == nil {
					writeSections.Add(1)
				}
			case 3:
				if err := sh.delete(ctx, key); err == nil {
					writeSections.Add(1)
				}
			case 4:
				sh.scan(ctx, "t", 16, time.Microsecond, func(k, v string) bool { return true })
			default:
				sh.get(ctx, key)
			}
			cancel()
		}
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go worker(int64(g) + 1)
	}

	// Flipper: rotate through all implementations, cross-family.
	flips := 0
	flipDeadline := time.Now().Add(duration)
	impls := []string{ImplShflMutex, ImplSyncRW, ImplSyncMutex, ImplShflRW}
	for time.Now().Before(flipDeadline) {
		if ok, err := sh.swapLock(impls[flips%len(impls)]); err != nil {
			t.Fatal(err)
		} else if ok {
			flips++
		}
		time.Sleep(time.Duration(100+flips%400) * time.Microsecond)
	}
	close(stop)
	wg.Wait()

	if violations.Load() != 0 {
		t.Fatalf("%d mutual-exclusion violations across %d handovers", violations.Load(), flips)
	}
	if flips < minFlips {
		t.Errorf("only %d handovers completed (want >= %d); flipper was starved", flips, minFlips)
	}
	// seq counts every successful write section: worker puts/deletes plus
	// one per completed swap.
	want := writeSections.Load() + uint64(flips)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	b, err := sh.acquire(ctx, false)
	if err != nil {
		t.Fatalf("shard unusable after torture: %v", err)
	}
	got := sh.seq
	b.lk.Unlock()
	if got != want {
		t.Fatalf("seq=%d but %d write sections succeeded: lost update across a handover", got, want)
	}
	t.Logf("handovers=%d writes=%d", flips, writeSections.Load())
}

// TestSwapLockRace: concurrent swappers must never publish over a box they
// did not drain; exactly the winners' generations chain cleanly and the
// shard stays usable.
func TestSwapLockRace(t *testing.T) {
	var violations atomic.Uint64
	reg := newTestRegistry()
	sh, err := newShard(ImplShflRW, reg.Site("swaprace"), &violations)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			impls := []string{ImplShflMutex, ImplSyncMutex, ImplSyncRW, ImplShflRW}
			for i := 0; i < 100; i++ {
				sh.swapLock(impls[(g+i)%len(impls)])
			}
		}(g)
	}
	// Meanwhile, traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			sh.put(ctx, "x", "y")
			sh.get(ctx, "x")
			cancel()
		}
	}()
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d violations under racing swappers", violations.Load())
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, _, err := sh.get(ctx, "x"); err != nil {
		t.Fatalf("shard unusable after swap race: %v", err)
	}
}
