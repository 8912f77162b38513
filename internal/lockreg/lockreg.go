// Package lockreg is the capability-aware lock registry: the single place
// where a lock algorithm is described once — name, substrates it exists on
// (native Go atomics, the simulator, or both), and the capability set it
// supports — so every binary builds locks by name through the registry
// instead of keeping its own switch statement and help text.
//
// A capability is something a caller may require beyond plain
// Lock/Unlock/TryLock: a read side (CapRW), abortable acquisition with
// timeouts and contexts (CapAbortable), priority-carrying acquisition
// (CapPriority), a pluggable shuffling policy (CapPolicy), parking waiters
// (CapBlocking), or goroutine-native grouping (CapGoroGrouped). Callers
// state what they need at construction time and get a loud error if the
// named lock cannot provide it — a flag typo or an unsupported
// flag/algorithm combination fails before any goroutine runs, never
// silently degrades.
package lockreg

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"shfllock/internal/sim"
	"shfllock/internal/simlocks"
)

// Cap is a bitmask of lock capabilities.
type Cap uint16

const (
	// CapRW: the lock has a read side (RLock/RUnlock/TryRLock).
	CapRW Cap = 1 << iota
	// CapBlocking: waiters may park instead of burning a P/CPU.
	CapBlocking
	// CapAbortable: acquisitions can give up (LockTimeout/LockContext).
	CapAbortable
	// CapPriority: acquisitions can carry a priority (LockWithPriority).
	CapPriority
	// CapPolicy: the shuffling policy is pluggable (SetPolicy) and swaps
	// live through the epoched transition protocol, with a TransitionLog of
	// (epoch, from, to, trigger) — so the lock also accepts the "auto"
	// meta-policy that closes the lockstat loop.
	CapPolicy
	// CapGoroGrouped: waiters are grouped by goroutine locality (approximate
	// P) instead of socket, with oversubscription-aware park budgets.
	CapGoroGrouped
)

// capNames orders the capability letters used in help text and the README
// matrix.
var capNames = []struct {
	c    Cap
	name string
}{
	{CapRW, "rw"},
	{CapBlocking, "blocking"},
	{CapAbortable, "abortable"},
	{CapPriority, "priority"},
	{CapPolicy, "policy"},
	{CapGoroGrouped, "goro-grouped"},
}

// Has reports whether c includes every bit of want.
func (c Cap) Has(want Cap) bool { return c&want == want }

// String renders the set as "rw+blocking+..." ("-" for the empty set).
func (c Cap) String() string {
	var parts []string
	for _, cn := range capNames {
		if c.Has(cn.c) {
			parts = append(parts, cn.name)
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, "+")
}

// Entry describes one lock algorithm: its canonical name, the substrates
// it is implemented on with their constructors, and the capabilities those
// implementations provide. It is the lock's only descriptor: entries are
// registered once (entries.go) and queried from every binary, Table 1 and
// the figure sweeps. An entry with both a native and a sim constructor is
// a dual-substrate lock whose two implementations are held to the same
// decision trace by the conformance tests.
type Entry struct {
	Name    string   // canonical name, the one flags and reports use
	Aliases []string // accepted spellings (legacy flag values, sim names)
	Doc     string   // one-line description for -list output and the README
	Caps    Cap

	native   func() *Native          // nil: no native mutex-shaped substrate
	nativeRW func() *NativeRW        // nil: no native RW substrate
	sim      func() simlocks.Maker   // nil: no simulated mutex
	simRW    func() simlocks.RWMaker // nil: no simulated RW lock
}

// Has reports whether the entry supports every requested capability.
func (e Entry) Has(c Cap) bool { return e.Caps.Has(c) }

// HasNative reports whether the lock exists on the native substrate.
func (e Entry) HasNative() bool { return e.native != nil || e.nativeRW != nil }

// HasSim reports whether the lock exists on the simulator substrate.
func (e Entry) HasSim() bool { return e.sim != nil || e.simRW != nil }

// simName returns the simlocks maker name backing this entry ("" if none).
func (e Entry) simName() string {
	switch {
	case e.sim != nil:
		return e.sim().Name
	case e.simRW != nil:
		return e.simRW().Name
	}
	return ""
}

// Substrates renders where the lock is implemented: "native+sim",
// "native", or "sim".
func (e Entry) Substrates() string {
	switch {
	case e.HasNative() && e.HasSim():
		return "native+sim"
	case e.HasNative():
		return "native"
	default:
		return "sim"
	}
}

// missing returns the requested capabilities the entry lacks.
func (e Entry) missing(need []Cap) Cap {
	var m Cap
	for _, c := range need {
		m |= c &^ e.Caps
	}
	return m
}

// capErr is the loud construction-time failure for an unsupported
// capability request.
func (e Entry) capErr(m Cap) error {
	return fmt.Errorf("lock %q does not support %s (its capabilities: %s)", e.Name, m, e.Caps)
}

// NewNative builds the native lock, requiring the given capabilities. For
// an RW entry the returned handle is the write side of the RW lock (an RW
// lock is a superset of a mutex); request CapRW via NewNativeRW to get the
// read side too.
func (e Entry) NewNative(need ...Cap) (*Native, error) {
	if m := e.missing(need); m != 0 {
		return nil, e.capErr(m)
	}
	if e.native != nil {
		return e.native(), nil
	}
	if e.nativeRW != nil {
		h := e.nativeRW()
		return &Native{Locker: h.RWLocker, Abort: h.Abort, SetPolicy: h.SetPolicy, LockWithPriority: h.LockWithPriority, TransitionLog: h.TransitionLog}, nil
	}
	return nil, fmt.Errorf("lock %q has no native implementation (substrates: %s)", e.Name, e.Substrates())
}

// NewNativeRW builds the native readers-writer lock, requiring the given
// capabilities (CapRW is implied).
func (e Entry) NewNativeRW(need ...Cap) (*NativeRW, error) {
	if m := e.missing(append(need, CapRW)); m != 0 {
		return nil, e.capErr(m)
	}
	if e.nativeRW == nil {
		return nil, fmt.Errorf("lock %q has no native implementation (substrates: %s)", e.Name, e.Substrates())
	}
	return e.nativeRW(), nil
}

// SimMaker returns the simulator mutex maker backing this entry.
func (e Entry) SimMaker() (simlocks.Maker, bool) {
	if e.sim == nil {
		return simlocks.Maker{}, false
	}
	return e.sim(), true
}

// SimRWMaker returns the simulator RW maker backing this entry.
func (e Entry) SimRWMaker() (simlocks.RWMaker, bool) {
	if e.simRW == nil {
		return simlocks.RWMaker{}, false
	}
	return e.simRW(), true
}

// NewSim builds the simulator lock on the given engine, requiring the
// given capabilities.
func (e Entry) NewSim(eng *sim.Engine, tag string, need ...Cap) (simlocks.Lock, error) {
	if m := e.missing(need); m != 0 {
		return nil, e.capErr(m)
	}
	mk, ok := e.SimMaker()
	if !ok {
		return nil, fmt.Errorf("lock %q has no simulator mutex implementation (substrates: %s)", e.Name, e.Substrates())
	}
	return mk.New(eng, tag), nil
}

var (
	buildOnce sync.Once
	regAll    []Entry
	regIndex  map[string]int // canonical names, aliases and sim names
)

func build() {
	buildOnce.Do(func() {
		regAll = allEntries()
		regIndex = map[string]int{}
		add := func(name string, i int) {
			if name == "" {
				return
			}
			if j, dup := regIndex[name]; dup && j != i {
				panic(fmt.Sprintf("lockreg: name %q claimed by both %q and %q",
					name, regAll[j].Name, regAll[i].Name))
			}
			regIndex[name] = i
		}
		for i, e := range regAll {
			add(e.Name, i)
			for _, a := range e.Aliases {
				add(a, i)
			}
			// The sim maker name always resolves too, so a -chaos-lock value
			// or an old results file keyed by sim name finds its entry.
			add(e.simName(), i)
		}
	})
}

// All returns every registered entry, in registration order (dual and
// native entries first, then the simulator-only algorithms).
func All() []Entry {
	build()
	return append([]Entry(nil), regAll...)
}

// Find resolves a lock by canonical name, alias, or sim maker name.
func Find(name string) (Entry, bool) {
	build()
	if i, ok := regIndex[name]; ok {
		return regAll[i], true
	}
	return Entry{}, false
}

// List returns the entries supporting every given capability.
func List(need ...Cap) []Entry {
	var out []Entry
	for _, e := range All() {
		if m := e.missing(need); m == 0 {
			out = append(out, e)
		}
	}
	return out
}

// NativeNames returns the canonical names of every native-substrate lock,
// in registration order — the value set of a native binary's -lock flag.
func NativeNames() []string {
	var out []string
	for _, e := range All() {
		if e.HasNative() {
			out = append(out, e.Name)
		}
	}
	return out
}

// SimNames returns the canonical names of every simulator-substrate mutex,
// in registration order.
func SimNames() []string {
	var out []string
	for _, e := range All() {
		if e.sim != nil {
			out = append(out, e.Name)
		}
	}
	return out
}

// DualSubstrate returns the entries implemented on both substrates — the
// set the conformance and chaos differential gates iterate.
func DualSubstrate() []Entry {
	var out []Entry
	for _, e := range All() {
		if e.HasNative() && e.HasSim() {
			out = append(out, e)
		}
	}
	return out
}

// NativeFlagHelp returns the -lock usage string of a native binary,
// generated from the registry so help text cannot drift from what Find
// accepts.
func NativeFlagHelp() string { return strings.Join(NativeNames(), "|") }

// UnknownNative formats the uniform unknown-lock error for native
// binaries: the bad name plus everything the registry would have accepted.
func UnknownNative(name string) error {
	return fmt.Errorf("unknown lock %q (native locks: %s)", name, NativeFlagHelp())
}

// UnknownSim formats the same error for simulator binaries, listing every
// simulated mutex.
func UnknownSim(name string) error {
	return fmt.Errorf("unknown lock %q (simulated locks: %s)", name, strings.Join(SimNames(), "|"))
}

// MatrixMarkdown renders the lock matrix as a Markdown table — the README
// section between the lockreg markers is generated from (and tested
// against) this.
func MatrixMarkdown() string {
	var b strings.Builder
	b.WriteString("| lock | substrates | capabilities | description |\n")
	b.WriteString("|------|------------|--------------|-------------|\n")
	for _, e := range All() {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", e.Name, e.Substrates(), e.Caps, e.Doc)
	}
	return b.String()
}

// sortedNames returns all resolvable names (canonical + aliases + sim),
// for error messages and tests.
func sortedNames() []string {
	build()
	out := make([]string, 0, len(regIndex))
	for name := range regIndex {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
