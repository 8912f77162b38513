package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"shfllock/internal/topology"
)

// Tests for the execution model: every thread is a coroutine resumed by the
// hub loop in Run.

// runPanic runs e and returns the value Run panicked with, or nil.
func runPanic(e *Engine) (p any) {
	defer func() { p = recover() }()
	e.Run()
	return nil
}

// TestThreadPanicReachesRun checks that a panic raised inside a simulated
// thread surfaces from Run on the caller's goroutine, where it can be
// recovered.
func TestThreadPanicReachesRun(t *testing.T) {
	t.Run("hard-stop", func(t *testing.T) {
		e := NewEngine(Config{Topo: topology.Laptop(), Seed: 1, HardStop: 100_000})
		e.Spawn("spinner", 0, func(th *Thread) {
			for {
				th.Delay(1000)
			}
		})
		p := runPanic(e)
		if s, _ := p.(string); !strings.Contains(s, "hard stop exceeded") {
			t.Fatalf("Run panicked with %v, want the hard-stop panic", p)
		}
	})
	t.Run("deadlock", func(t *testing.T) {
		e := newEngine(1)
		// Two threads on different cores, so the park runs the event loop
		// on the parking thread's coroutine after a switch from the hub.
		e.Spawn("worker", 1, func(th *Thread) { th.Delay(1000) })
		e.Spawn("orphan", 0, func(th *Thread) {
			th.Delay(5000)
			th.Park() // nobody unparks it
		})
		p := runPanic(e)
		if s, _ := p.(string); !strings.Contains(s, "deadlock") {
			t.Fatalf("Run panicked with %v, want the deadlock panic", p)
		}
	})
	t.Run("thread-function", func(t *testing.T) {
		e := newEngine(1)
		e.Spawn("a", 0, func(th *Thread) { th.Yield() })
		e.Spawn("b", 0, func(th *Thread) {
			th.Yield()
			panic("boom")
		})
		p := runPanic(e)
		s, _ := p.(string)
		if !strings.HasPrefix(s, "boom\n") || !strings.Contains(s, `sim: panic in thread 1 "b"`) ||
			!strings.Contains(s, "hub_test.go") {
			t.Fatalf("Run panicked with %v, want boom with the thread's stack", p)
		}
	})
}

// TestAbortEndsRun checks that Abort from inside a thread makes Run return
// with the other threads left where they stand, and that the aborted
// engine is not recycled.
func TestAbortEndsRun(t *testing.T) {
	e := newEngine(1)
	var after bool
	e.Spawn("parked", 0, func(th *Thread) { th.Park() })
	e.Spawn("aborter", 1, func(th *Thread) {
		th.Delay(10_000)
		th.Engine().Abort()
		after = true
	})
	e.Run()
	if after {
		t.Fatal("Abort returned to its caller")
	}
	if !e.Stopped() {
		t.Error("Abort did not raise the stop flag")
	}
	if e.live != 2 {
		t.Errorf("live = %d after Abort, want 2 (both threads unfinished)", e.live)
	}
	if !strings.Contains(e.Dump(), `"parked" core=0 state=parked`) {
		t.Errorf("Dump lost the frozen thread:\n%s", e.Dump())
	}
	e.Recycle() // must be a no-op: live threads remain
	if !e.started || e.threads == nil {
		t.Error("Recycle reset an aborted engine")
	}
}

// TestFinishedCoroutinesDoNotLeak runs many clean points through Run and
// Recycle and checks that the goroutine count returns to its baseline:
// every finished thread's coroutine must have exited.
func TestFinishedCoroutinesDoNotLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		e := newEngine(int64(i))
		w := e.Mem().AllocWord("w")
		var parked *Thread
		e.Spawn("parker", 0, func(th *Thread) {
			parked = th
			th.Store(w, 1)
			th.Park()
		})
		e.Spawn("waker", 1, func(th *Thread) {
			th.SpinUntil(w, func(v uint64) bool { return v == 1 })
			th.Delay(5000)
			th.Unpark(parked)
		})
		for j := 0; j < 3; j++ {
			e.Spawn("yielder", 2, func(th *Thread) {
				for k := 0; k < 4; k++ {
					th.Yield()
				}
			})
		}
		e.Run()
		e.Recycle()
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after 200 points, baseline %d: finished coroutines leaked", n, base)
	}
}
