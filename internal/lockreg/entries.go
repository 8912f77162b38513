package lockreg

import (
	"sync"

	"shfllock/internal/core"
	"shfllock/internal/simlocks"
)

// nativeShfl are the ShflLock-family capabilities shared by the native
// spin, mutex and goroutine-native deployments.
const nativeShfl = CapAbortable | CapPriority | CapPolicy

// builtinEntries lists every lock with a native substrate. Each dual
// entry's simName ties it to the simulator implementation of the same
// algorithm; the conformance tests hold the two to identical decision
// traces. Legacy flag spellings live on as aliases so no command line or
// committed results file breaks.
func builtinEntries() []Entry {
	return []Entry{
		{
			Name: "shfl-mutex", Aliases: []string{"mutex"},
			Doc:  "blocking ShflLock: TAS word + MCS queue, off-critical-path shuffling, spin-then-park",
			Caps: CapBlocking | nativeShfl,
			native: func() *Native {
				m := &core.Mutex{}
				return &Native{Locker: m, Abort: m, SetPolicy: m.SetPolicy, LockWithPriority: m.LockWithPriority, TransitionLog: m.Transitions}
			},
			simName: "shfllock-b",
		},
		{
			Name: "shfl-spin", Aliases: []string{"spinlock"},
			Doc:  "non-blocking ShflLock: shuffled MCS queue, waiters always spin",
			Caps: nativeShfl,
			native: func() *Native {
				l := &core.SpinLock{}
				return &Native{Locker: l, Abort: l, SetPolicy: l.SetPolicy, LockWithPriority: l.LockWithPriority, TransitionLog: l.Transitions}
			},
			simName: "shfllock-nb",
		},
		{
			Name: "shfl-rw", Aliases: []string{"rwmutex"},
			Doc:  "readers-writer ShflLock: blocking write side, per-socket reader counters",
			Caps: CapRW | CapBlocking | nativeShfl,
			nativeRW: func() *NativeRW {
				l := &core.RWMutex{}
				return &NativeRW{RWLocker: l, Abort: l, SetPolicy: l.SetPolicy, LockWithPriority: l.LockWithPriority, TransitionLog: l.Transitions}
			},
			simName: "shfllock-rw", simRW: true,
		},
		{
			Name: "goro",
			Doc:  "goroutine-native blocking ShflLock: waiters grouped by P, oversubscription-aware park budgets",
			Caps: CapBlocking | CapGoroGrouped | nativeShfl,
			native: func() *Native {
				m := core.NewGoroMutex()
				return &Native{Locker: m, Abort: m, SetPolicy: m.SetPolicy, LockWithPriority: m.LockWithPriority, TransitionLog: m.Transitions}
			},
		},
		{
			Name: "goro-spin",
			Doc:  "goroutine-native non-blocking ShflLock",
			Caps: CapGoroGrouped | nativeShfl,
			native: func() *Native {
				l := core.NewGoroSpinLock()
				return &Native{Locker: l, Abort: l, SetPolicy: l.SetPolicy, LockWithPriority: l.LockWithPriority, TransitionLog: l.Transitions}
			},
		},
		{
			Name: "goro-rw",
			Doc:  "goroutine-native readers-writer ShflLock",
			Caps: CapRW | CapBlocking | CapGoroGrouped | nativeShfl,
			nativeRW: func() *NativeRW {
				l := core.NewGoroRWMutex()
				return &NativeRW{RWLocker: l, Abort: l, SetPolicy: l.SetPolicy, LockWithPriority: l.LockWithPriority, TransitionLog: l.Transitions}
			},
		},
		{
			Name: "sync-mutex", Aliases: []string{"sync.Mutex"},
			Doc:  "the Go runtime's sync.Mutex — the baseline every Go service actually uses",
			Caps: CapBlocking,
			native: func() *Native {
				return &Native{Locker: &sync.Mutex{}}
			},
		},
		{
			Name: "sync-rw", Aliases: []string{"sync.RWMutex"},
			Doc:  "the Go runtime's sync.RWMutex baseline",
			Caps: CapRW | CapBlocking,
			nativeRW: func() *NativeRW {
				return &NativeRW{RWLocker: &sync.RWMutex{}}
			},
		},
		{
			Name: "tas",
			Doc:  "test-and-set spinlock: one word, every waiter hammers it",
			native: func() *Native {
				return &Native{Locker: &core.TASLock{}}
			},
			simName: "tas",
		},
		{
			Name: "ticket",
			Doc:  "ticket lock: FIFO by ticket number, shared-word spinning",
			native: func() *Native {
				return &Native{Locker: &core.TicketLock{}}
			},
			simName: "ticket",
		},
		{
			Name: "mcs",
			Doc:  "MCS queue lock: FIFO, each waiter spins on its own node",
			native: func() *Native {
				return &Native{Locker: &core.MCSLock{}}
			},
			simName: "mcs",
		},
		{
			Name: "fissile",
			Doc:  "Fissile lock: TAS fast path fissioned over an MCS outer lock; only the queue head competes for the inner word",
			native: func() *Native {
				return &Native{Locker: &core.FissileLock{}}
			},
			simName: "fissile",
		},
		{
			Name: "hapax",
			Doc:  "Hapax lock: value-based FIFO queue; unique-per-acquisition values make stale mailboxes harmless (no reclamation protocol)",
			native: func() *Native {
				return &Native{Locker: &core.HapaxLock{}}
			},
			simName: "hapax",
		},
		{
			Name: "reciprocating", Aliases: []string{"recip"},
			Doc: "Reciprocating lock: one arrivals word, LIFO push, segments served in alternating order with bounded bypass",
			native: func() *Native {
				return &Native{Locker: &core.RecipLock{}}
			},
			simName: "reciprocating",
		},
	}
}

// simOnlyCaps adds capabilities (beyond kind-derived CapBlocking) for
// simulator-only makers: the ShflLock variants keep the family's abortable
// acquisition, and the priority deployment its priority path.
var simOnlyCaps = map[string]Cap{
	"shfllock-b-numa": CapAbortable,
	"shfl-base":       CapAbortable,
	"shfl+shuffler":   CapAbortable,
	"shfl+shufflers":  CapAbortable,
	"shfl+qlast":      CapAbortable,
	"shfllock-prio":   CapAbortable | CapPriority,
	"mcstp":           CapAbortable,
}

// simOnlyDocs gives the simulator-only algorithms a matrix row worth
// reading; anything not listed falls back to a generic line.
var simOnlyDocs = map[string]string{
	"stock-qspinlock":   "Linux qspinlock model (pre-CNA mainline)",
	"cna":               "compact NUMA-aware qspinlock: main + secondary queue",
	"cohort":            "lock cohorting: global lock + per-socket locks",
	"hmcs":              "hierarchical MCS with per-socket levels",
	"cst":               "CST: hierarchical blocking lock with dynamic per-socket structures",
	"malthusian":        "Malthusian lock: culls waiters to a passive list",
	"mcstp":             "MCS time-published: waiters abandon on timeout",
	"pthread":           "futex-based pthread mutex model",
	"mutexee":           "Mutexee: spin-then-futex with handover hints",
	"stock-mutex":       "Linux blocking mutex model (optimistic spin + wait list)",
	"stock-rwsem":       "Linux rwsem model",
	"cohort-rw":         "cohort readers-writer lock",
	"cst-rw":            "CST readers-writer lock",
	"mcs-heap":          "MCS with heap-allocated queue nodes (userspace deployment)",
	"cna-heap":          "CNA with heap-allocated queue nodes",
	"hmcs-heap":         "HMCS with heap-allocated queue nodes",
	"shfllock-b-numa":   "blocking ShflLock variant: stealing restricted to the holder's socket",
	"shfl-base":         "ShflLock ablation stage 0: plain TAS+MCS, no shuffling",
	"shfl+shuffler":     "ShflLock ablation stage 1: single persistent shuffler",
	"shfl+shufflers":    "ShflLock ablation stage 2: shuffler role is passed",
	"shfl+qlast":        "ShflLock ablation stage 3 (full): qlast shortcut",
	"shfllock-prio":     "ShflLock deployment with priority-carrying acquisition",
	"stock-rwsem+bravo": "Linux rwsem with the BRAVO distributed-reader front end",
	"shfllock-rw+bravo": "readers-writer ShflLock with the BRAVO reader front end",
}

func simOnlyDoc(name string) string {
	if d, ok := simOnlyDocs[name]; ok {
		return d
	}
	return "simulator-only algorithm from the paper's evaluation"
}

// allEntries assembles the full registry: the hand-written native/dual
// entries, then simulator-only entries generated from the simlocks makers
// so a lock added there is reachable by name everywhere without a second
// registration.
func allEntries() []Entry {
	out := builtinEntries()
	claimed := map[string]bool{}
	for _, e := range out {
		if e.simName != "" {
			claimed[e.simName] = true
		}
	}
	simEntry := func(name string, kind simlocks.Kind, rw bool) Entry {
		caps := simOnlyCaps[name]
		if kind == simlocks.Blocking {
			caps |= CapBlocking
		}
		if rw {
			caps |= CapRW
		}
		return Entry{Name: name, Doc: simOnlyDoc(name), Caps: caps, simName: name, simRW: rw}
	}
	for _, mk := range simlocks.AllMutexMakers() {
		if !claimed[mk.Name] {
			out = append(out, simEntry(mk.Name, mk.Kind, false))
		}
	}
	for _, name := range simlocks.ExtraMutexNames() {
		if mk, ok := simlocks.MakerByName(name); ok && !claimed[name] {
			out = append(out, simEntry(name, mk.Kind, false))
		}
	}
	for _, mk := range simlocks.AllRWMakers() {
		if !claimed[mk.Name] {
			out = append(out, simEntry(mk.Name, mk.Kind, true))
		}
	}
	return out
}
