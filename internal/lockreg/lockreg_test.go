package lockreg

import (
	"os"
	"strings"
	"testing"
)

// TestFindResolvesAliasesAndSimNames pins the naming contract: legacy flag
// spellings, stdlib spellings and simulator maker names all resolve to the
// canonical entry, so no command line or committed artifact breaks when a
// binary moves onto the registry.
func TestFindResolvesAliasesAndSimNames(t *testing.T) {
	want := map[string]string{
		"mutex":         "shfl-mutex",
		"spinlock":      "shfl-spin",
		"rwmutex":       "shfl-rw",
		"sync.Mutex":    "sync-mutex",
		"sync.RWMutex":  "sync-rw",
		"shfllock-b":    "shfl-mutex", // sim maker name of the same algorithm
		"shfllock-nb":   "shfl-spin",
		"shfllock-rw":   "shfl-rw",
		"recip":         "reciprocating",
		"fissile":       "fissile",
		"cna":           "cna", // simulator-only entries resolve by their own name
		"shfl+qlast":    "shfl+qlast",
		"shfllock-prio": "shfllock-prio",
	}
	for name, canonical := range want {
		e, ok := Find(name)
		if !ok {
			t.Fatalf("Find(%q) failed; resolvable names: %v", name, sortedNames())
		}
		if e.Name != canonical {
			t.Errorf("Find(%q) = %q, want %q", name, e.Name, canonical)
		}
	}
	if _, ok := Find("no-such-lock"); ok {
		t.Error("Find accepted a nonexistent name")
	}
}

// TestCapabilityEnforcement is the satellite-3 contract: requesting a
// capability the algorithm lacks fails loudly at construction, naming both
// the lock and the missing capability.
func TestCapabilityEnforcement(t *testing.T) {
	cases := []struct {
		lock string
		need Cap
		want string // substring of the error
	}{
		{"hapax", CapPriority, "priority"},
		{"hapax", CapAbortable, "abortable"},
		{"sync-mutex", CapAbortable, "abortable"},
		{"tas", CapPolicy, "policy"},
		{"fissile", CapBlocking, "blocking"},
		{"reciprocating", CapPriority | CapPolicy, "priority+policy"},
	}
	for _, c := range cases {
		e, ok := Find(c.lock)
		if !ok {
			t.Fatalf("Find(%q) failed", c.lock)
		}
		h, err := e.NewNative(c.need)
		if err == nil || h != nil {
			t.Fatalf("%s: NewNative(%s) should have failed, got handle=%v", c.lock, c.need, h)
		}
		if !strings.Contains(err.Error(), c.lock) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name the lock and the missing capability %q", c.lock, err, c.want)
		}
	}
	// The same gate guards the simulator substrate.
	e, _ := Find("hapax")
	if _, err := e.NewSim(nil, "t", CapPriority); err == nil {
		t.Error("sim hapax with CapPriority should have failed before touching the engine")
	}
	// And the RW surface: a mutex-shaped lock cannot produce a read side.
	if _, err := e.NewNativeRW(); err == nil {
		t.Error("NewNativeRW on hapax should have failed (no read side)")
	}
}

// TestMissingSubstrateFailsLoudly: a simulator-only name is not silently
// accepted by a native binary, and vice versa.
func TestMissingSubstrateFailsLoudly(t *testing.T) {
	e, ok := Find("cna")
	if !ok {
		t.Fatal("Find(cna) failed")
	}
	if _, err := e.NewNative(); err == nil || !strings.Contains(err.Error(), "no native") {
		t.Errorf("NewNative on sim-only cna: got %v", err)
	}
	g, _ := Find("goro")
	if _, err := g.NewSim(nil, "t"); err == nil || !strings.Contains(err.Error(), "no simulator") {
		t.Errorf("NewSim on native-only goro: got %v", err)
	}
}

// TestNativeConstruction builds every native entry and checks the handle's
// capability surfaces are populated exactly when the entry claims them.
func TestNativeConstruction(t *testing.T) {
	for _, e := range List() {
		if !e.HasNative() {
			continue
		}
		if e.Has(CapRW) {
			h, err := e.NewNativeRW()
			if err != nil {
				t.Fatalf("%s: NewNativeRW: %v", e.Name, err)
			}
			h.Lock()
			h.Unlock()
			h.RLock()
			h.RUnlock()
			if !h.TryLock() {
				t.Fatalf("%s: TryLock failed on a free lock", e.Name)
			}
			h.Unlock()
			if (h.Abort != nil) != e.Has(CapAbortable) {
				t.Errorf("%s: Abort surface %v, capability says %v", e.Name, h.Abort != nil, e.Has(CapAbortable))
			}
			if (h.SetPolicy != nil) != e.Has(CapPolicy) {
				t.Errorf("%s: SetPolicy surface mismatch", e.Name)
			}
			// An RW entry also builds as a plain mutex (write side).
			if _, err := e.NewNative(); err != nil {
				t.Errorf("%s: NewNative on RW entry: %v", e.Name, err)
			}
			continue
		}
		h, err := e.NewNative()
		if err != nil {
			t.Fatalf("%s: NewNative: %v", e.Name, err)
		}
		h.Lock()
		h.Unlock()
		if !h.TryLock() {
			t.Fatalf("%s: TryLock failed on a free lock", e.Name)
		}
		h.Unlock()
		if (h.Abort != nil) != e.Has(CapAbortable) {
			t.Errorf("%s: Abort surface %v, capability says %v", e.Name, h.Abort != nil, e.Has(CapAbortable))
		}
		if (h.SetPolicy != nil) != e.Has(CapPolicy) {
			t.Errorf("%s: SetPolicy surface mismatch", e.Name)
		}
		if (h.LockWithPriority != nil) != e.Has(CapPriority) {
			t.Errorf("%s: LockWithPriority surface mismatch", e.Name)
		}
	}
}

// TestListFilters: List(caps...) returns exactly the entries supporting
// the request, and the convenience name lists agree with it.
func TestListFilters(t *testing.T) {
	for _, e := range List(CapRW) {
		if !e.Has(CapRW) {
			t.Errorf("List(CapRW) returned %s without the capability", e.Name)
		}
	}
	if len(List(CapAbortable, CapGoroGrouped)) == 0 {
		t.Error("no goroutine-grouped abortable locks — the goro family is gone?")
	}
	nn := NativeNames()
	if len(nn) == 0 || nn[0] != "shfl-mutex" {
		t.Fatalf("NativeNames() = %v", nn)
	}
	for _, name := range nn {
		e, ok := Find(name)
		if !ok || !e.HasNative() {
			t.Errorf("NativeNames lists %q but Find/HasNative disagree", name)
		}
	}
	if !strings.Contains(NativeFlagHelp(), "fissile") {
		t.Errorf("flag help is missing the new algorithms: %s", NativeFlagHelp())
	}
}

// TestDualSubstrateSet pins the set of algorithms implemented on both
// substrates — the set the conformance and chaos gates sweep.
func TestDualSubstrateSet(t *testing.T) {
	got := map[string]bool{}
	for _, e := range DualSubstrate() {
		got[e.Name] = true
		if e.simRW != nil {
			if _, ok := e.SimRWMaker(); !ok {
				t.Errorf("%s: SimRWMaker missing for sim name %q", e.Name, e.simName())
			}
			continue
		}
		if _, ok := e.SimMaker(); !ok {
			t.Errorf("%s: SimMaker missing for sim name %q", e.Name, e.simName())
		}
	}
	for _, want := range []string{"shfl-mutex", "shfl-spin", "shfl-rw", "tas", "ticket", "mcs", "fissile", "hapax", "reciprocating"} {
		if !got[want] {
			t.Errorf("dual-substrate set lost %q (have %v)", want, got)
		}
	}
}

// TestMatrixMatchesREADME is the satellite-3 drift gate: the lock matrix
// in README.md between the lockreg markers must be exactly what
// MatrixMarkdown renders, so the documented capability matrix can never
// disagree with what the registry enforces.
func TestMatrixMatchesREADME(t *testing.T) {
	b, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const start = "<!-- lockreg:matrix:start -->"
	const end = "<!-- lockreg:matrix:end -->"
	text := string(b)
	i := strings.Index(text, start)
	j := strings.Index(text, end)
	if i < 0 || j < 0 || j < i {
		t.Fatalf("README.md lacks the %s / %s markers", start, end)
	}
	got := strings.TrimSpace(text[i+len(start) : j])
	want := strings.TrimSpace(MatrixMarkdown())
	if got != want {
		t.Errorf("README lock matrix is out of date.\nRegenerate the section between the markers with lockreg.MatrixMarkdown().\n--- README ---\n%s\n--- registry ---\n%s", got, want)
	}
}
