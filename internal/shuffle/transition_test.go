package shuffle

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestPolicyBoxEpochMonotone: racing Sets never move the epoch backward and
// never lose a count — after G*N concurrent installs the epoch is exactly
// G*N and the lifetime log agrees. Run under -race via verify.sh.
func TestPolicyBoxEpochMonotone(t *testing.T) {
	var box PolicyBox
	const goroutines, sets = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		pol := ByName(Names()[g%len(Names())])
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := uint64(0)
			for i := 0; i < sets; i++ {
				e := box.Set(pol, "api", uint64(i))
				if e <= last {
					t.Errorf("epoch went backward: %d after %d", e, last)
					return
				}
				last = e
			}
		}()
	}
	wg.Wait()
	if got, want := box.Epoch(), uint64(goroutines*sets); got != want {
		t.Fatalf("final epoch %d, want %d (one bump per Set)", got, want)
	}
	if got := box.Log().Len(); got != uint64(goroutines*sets) {
		t.Fatalf("log recorded %d transitions, want %d", got, goroutines*sets)
	}
}

// TestPolicyBoxZeroValue: the empty box reads as (nil, 0) so it can live in
// zero-value locks, and a nil install renders as "default".
func TestPolicyBoxZeroValue(t *testing.T) {
	var box PolicyBox
	if box.Get() != nil {
		t.Fatal("zero box returned a policy")
	}
	if box.Epoch() != 0 {
		t.Fatal("zero box has nonzero epoch")
	}
	if e := box.Set(nil, "api", 7); e != 1 {
		t.Fatalf("first Set returned epoch %d, want 1", e)
	}
	tail := box.Log().Tail(1)
	if len(tail) != 1 || tail[0].From != "default" || tail[0].To != "default" || tail[0].At != 7 {
		t.Fatalf("nil install recorded %+v, want default->default at 7", tail)
	}
}

// TestTransitionLogTail: the ring keeps the newest transitions once lifetime
// count passes capacity, Tail returns oldest-first, and String renders every
// kept line.
func TestTransitionLogTail(t *testing.T) {
	var l TransitionLog
	total := transitionLogCap + 10
	for i := 1; i <= total; i++ {
		l.record(Transition{Epoch: uint64(i), From: "a", To: "b", Trigger: "api"})
	}
	if got := l.Len(); got != uint64(total) {
		t.Fatalf("Len=%d, want %d", got, total)
	}
	tail := l.Tail(3)
	if len(tail) != 3 {
		t.Fatalf("Tail(3) returned %d entries", len(tail))
	}
	for i, tr := range tail {
		if want := uint64(total - 2 + i); tr.Epoch != want {
			t.Fatalf("Tail(3)[%d].Epoch=%d, want %d (oldest first)", i, tr.Epoch, want)
		}
	}
	// Asking past the kept window returns the whole ring, not garbage.
	if got := len(l.Tail(10 * transitionLogCap)); got != transitionLogCap {
		t.Fatalf("oversized Tail returned %d entries, want %d", got, transitionLogCap)
	}
	if got := strings.Count(l.String(), "\n"); got != transitionLogCap {
		t.Fatalf("String rendered %d lines, want %d", got, transitionLogCap)
	}
	if !strings.Contains(l.String(), fmt.Sprintf("epoch=%-4d", total)) {
		t.Fatalf("String missing the newest epoch:\n%s", l.String())
	}
}

// TestPinIdentity: plain policies pin to themselves; a Pinner (Meta) pins to
// its current concrete stage, never to the composite.
func TestPinIdentity(t *testing.T) {
	for _, name := range Names() {
		p := ByName(name)
		if _, composite := p.(Pinner); composite {
			continue
		}
		if Pin(p) != p {
			t.Fatalf("plain policy %q did not pin to itself", name)
		}
	}
	m := NewMeta()
	got := Pin(m)
	if got == Policy(m) {
		t.Fatal("Meta pinned to itself; a walk would re-read stages mid-round")
	}
	if got.Name() != "numa" {
		t.Fatalf("fresh Meta pinned to %q, want the numa boot stage", got.Name())
	}
}

// TestByNameAutoIsFresh: every "auto" lookup must build a new Meta — shared
// meta state across unrelated locks would couple their stage decisions.
func TestByNameAutoIsFresh(t *testing.T) {
	a, b := ByName("auto"), ByName("auto")
	if a == nil || b == nil {
		t.Fatal(`ByName("auto") returned nil`)
	}
	if a == b {
		t.Fatal(`ByName("auto") returned a shared instance`)
	}
	if _, ok := a.(*Meta); !ok {
		t.Fatalf(`ByName("auto") returned %T, want *Meta`, a)
	}
}
