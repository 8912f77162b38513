package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// abortable is the shared abort surface of the three native locks.
type abortable interface {
	Lock()
	Unlock()
	TryLock() bool
	LockTimeout(d time.Duration) bool
	LockContext(ctx context.Context) error
}

func abortLocks() map[string]func() abortable {
	return map[string]func() abortable{
		"spinlock": func() abortable { return &SpinLock{} },
		"mutex":    func() abortable { return &Mutex{} },
		"rwmutex":  func() abortable { return &RWMutex{} },
	}
}

// TestLockTimeoutExpires: a held lock makes LockTimeout give up within its
// budget, and the abandoned attempt must leave the queue fully usable —
// the holder can release and a fresh acquisition succeeds.
func TestLockTimeoutExpires(t *testing.T) {
	for name, mk := range abortLocks() {
		t.Run(name, func(t *testing.T) {
			l := mk()
			l.Lock()
			start := time.Now()
			if l.LockTimeout(5 * time.Millisecond) {
				t.Fatal("LockTimeout acquired a held lock")
			}
			if waited := time.Since(start); waited > 2*time.Second {
				t.Fatalf("LockTimeout took %v, way past its 5ms budget", waited)
			}
			l.Unlock()
			if !l.LockTimeout(time.Second) {
				t.Fatal("free lock not acquired after an abandoned attempt")
			}
			l.Unlock()
		})
	}
}

// TestLockContextCancel: cancellation propagates its cause, and a
// pre-cancelled context never touches the queue.
func TestLockContextCancel(t *testing.T) {
	for name, mk := range abortLocks() {
		t.Run(name, func(t *testing.T) {
			l := mk()
			l.Lock()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- l.LockContext(ctx) }()
			time.Sleep(time.Millisecond)
			cancel()
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Fatalf("LockContext = %v, want context.Canceled", err)
			}
			pre, precancel := context.WithCancel(context.Background())
			precancel()
			if err := l.LockContext(pre); err == nil {
				t.Fatal("pre-cancelled context acquired the lock")
			}
			l.Unlock()
			if err := l.LockContext(context.Background()); err != nil {
				t.Fatalf("background context failed on a free lock: %v", err)
			}
			l.Unlock()
		})
	}
}

// TestAbortHammer is the abandonment property test: goroutines mix plain,
// try, timeout, and context acquisitions under heavy contention. Two
// invariants are checked end to end:
//
//   - an abandoned attempt never receives the lock: a waiter whose
//     LockTimeout/LockContext reported failure does not touch the plain
//     counter, so a stray grant shows up as a data race (-race) or a lost
//     update;
//   - the queue survives abandonment: every attempt terminates (a dropped
//     or dangling qnode would deadlock the test) and the final counter
//     equals the number of successful acquisitions exactly.
func TestAbortHammer(t *testing.T) {
	for name, mk := range abortLocks() {
		t.Run(name, func(t *testing.T) {
			l := mk()
			goroutines, iters := 8, 300
			if testing.Short() {
				goroutines, iters = 4, 80
			}
			counter := 0
			var granted atomic.Int64
			var timeouts atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < iters; i++ {
						got := false
						switch rng.Intn(4) {
						case 0:
							l.Lock()
							got = true
						case 1:
							got = l.TryLock()
						case 2:
							got = l.LockTimeout(time.Duration(rng.Intn(50)) * time.Microsecond)
						case 3:
							ctx, cancel := context.WithTimeout(context.Background(),
								time.Duration(rng.Intn(50))*time.Microsecond)
							got = l.LockContext(ctx) == nil
							cancel()
						}
						if !got {
							timeouts.Add(1)
							continue
						}
						counter++
						granted.Add(1)
						l.Unlock()
					}
				}(int64(g) + 1)
			}
			wg.Wait()
			if int64(counter) != granted.Load() {
				t.Fatalf("counter=%d but %d acquisitions succeeded (lost update or stray grant)",
					counter, granted.Load())
			}
			// The lock must still be fully functional after all the churn.
			if !l.TryLock() {
				t.Fatal("lock left held after hammer (leaked grant to an abandoned node?)")
			}
			l.Unlock()
			t.Logf("%s: %d granted, %d timed out", name, granted.Load(), timeouts.Load())
		})
	}
}

// TestAbortGrantWalkLiveness is the regression test for a lost queue head:
// a grant walk that reclaimed the head's scan hint used to relay that dead
// node to the new head as its resumption point. The next shuffling round
// then scanned from outside the queue and could splice a reclaimed node
// back in, and the grant that later landed on it woke nobody: every waiter
// parked forever. Abort-heavy traffic reaches that walk within a few
// hundred milliseconds once several sockets make the NUMA policy move
// waiters and keep hints; the run must finish.
func TestAbortGrantWalkLiveness(t *testing.T) {
	defer SetSockets(Sockets())
	SetSockets(4)
	for name, mk := range abortLocks() {
		t.Run(name, func(t *testing.T) {
			l := mk()
			run := 500 * time.Millisecond
			if testing.Short() {
				run = 150 * time.Millisecond
			}
			var stop atomic.Bool
			var granted, inCS atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for !stop.Load() {
						got := false
						d := time.Duration(rng.Intn(200)) * time.Microsecond
						switch {
						case rng.Float64() < 0.3:
							if rng.Intn(2) == 0 {
								got = l.LockTimeout(d)
							} else {
								ctx, cancel := context.WithTimeout(context.Background(), d)
								got = l.LockContext(ctx) == nil
								cancel()
							}
						case rng.Intn(8) == 0:
							got = l.TryLock()
						default:
							l.Lock()
							got = true
						}
						if !got {
							continue
						}
						if inCS.Add(1) != 1 {
							t.Error("mutual exclusion violated")
						}
						for i := 0; i < rng.Intn(200); i++ {
						}
						inCS.Add(-1)
						granted.Add(1)
						l.Unlock()
					}
				}(int64(g) + 1)
			}
			time.Sleep(run)
			stop.Store(true)
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("waiters still blocked 10s after the run stopped (%d acquisitions): lost queue head", granted.Load())
			}
		})
	}
}

// TestAbortProbeCounts: aborts and reclaims reported through the probe
// stay consistent — every abort is eventually matched by at most one
// reclaim (the head abdication path aborts without leaving a node behind).
func TestAbortProbeCounts(t *testing.T) {
	var aborts, reclaims atomic.Int64
	p := &countingProbe{aborts: &aborts, reclaims: &reclaims}
	var l SpinLock
	l.SetProbe(p)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				if l.LockTimeout(time.Duration(rng.Intn(30)) * time.Microsecond) {
					l.Unlock()
				}
			}
		}(int64(g) + 1)
	}
	wg.Wait()
	if reclaims.Load() > aborts.Load() {
		t.Fatalf("%d reclaims exceed %d aborts: a live node was reclaimed", reclaims.Load(), aborts.Load())
	}
}

type countingProbe struct {
	aborts, reclaims *atomic.Int64
}

func (p *countingProbe) Steal(bool)               {}
func (p *countingProbe) Contended()               {}
func (p *countingProbe) Handoff()                 {}
func (p *countingProbe) Park()                    {}
func (p *countingProbe) Unpark(bool)              {}
func (p *countingProbe) Shuffle(string, int, int) {}
func (p *countingProbe) Abort()                   { p.aborts.Add(1) }
func (p *countingProbe) Reclaim()                 { p.reclaims.Add(1) }
