package lockreg

import (
	"sync"

	"shfllock/internal/core"
	"shfllock/internal/simlocks"
)

// nativeShfl are the ShflLock-family capabilities shared by the native
// spin, mutex and goroutine-native deployments.
const nativeShfl = CapAbortable | CapPriority | CapPolicy

// allEntries is the registry: one entry per lock, in registration order.
// Locks with a native substrate come first; a dual entry's sim constructor
// ties it to the simulator implementation of the same algorithm, and the
// conformance tests hold the two to identical decision traces. Legacy flag
// spellings live on as aliases so no command line or committed results
// file breaks.
func allEntries() []Entry {
	return []Entry{
		{
			Name: "shfl-mutex", Aliases: []string{"mutex"},
			Doc:  "blocking ShflLock: TAS word + MCS queue, off-critical-path shuffling, spin-then-park",
			Caps: CapBlocking | nativeShfl,
			native: func() *Native {
				m := &core.Mutex{}
				return &Native{Locker: m, Abort: m, SetPolicy: m.SetPolicy, LockWithPriority: m.LockWithPriority, TransitionLog: m.Transitions}
			},
			sim: simlocks.ShflLockBMaker,
		},
		{
			Name: "shfl-spin", Aliases: []string{"spinlock"},
			Doc:  "non-blocking ShflLock: shuffled MCS queue, waiters always spin",
			Caps: nativeShfl,
			native: func() *Native {
				l := &core.SpinLock{}
				return &Native{Locker: l, Abort: l, SetPolicy: l.SetPolicy, LockWithPriority: l.LockWithPriority, TransitionLog: l.Transitions}
			},
			sim: simlocks.ShflLockNBMaker,
		},
		{
			Name: "shfl-rw", Aliases: []string{"rwmutex"},
			Doc:  "readers-writer ShflLock: blocking write side, per-socket reader counters",
			Caps: CapRW | CapBlocking | nativeShfl,
			nativeRW: func() *NativeRW {
				l := &core.RWMutex{}
				return &NativeRW{RWLocker: l, Abort: l, SetPolicy: l.SetPolicy, LockWithPriority: l.LockWithPriority, TransitionLog: l.Transitions}
			},
			simRW: simlocks.ShflRWMaker,
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
			sim: simlocks.TASMaker,
		},
		{
			Name: "ticket",
			Doc:  "ticket lock: FIFO by ticket number, shared-word spinning",
			native: func() *Native {
				return &Native{Locker: &core.TicketLock{}}
			},
			sim: simlocks.TicketMaker,
		},
		{
			Name: "mcs",
			Doc:  "MCS queue lock: FIFO, each waiter spins on its own node",
			native: func() *Native {
				return &Native{Locker: &core.MCSLock{}}
			},
			sim: simlocks.MCSMaker,
		},
		{
			Name: "fissile",
			Doc:  "Fissile lock: TAS fast path fissioned over an MCS outer lock; only the queue head competes for the inner word",
			native: func() *Native {
				return &Native{Locker: &core.FissileLock{}}
			},
			sim: simlocks.FissileMaker,
		},
		{
			Name: "hapax",
			Doc:  "Hapax lock: value-based FIFO queue; unique-per-acquisition values make stale mailboxes harmless (no reclamation protocol)",
			native: func() *Native {
				return &Native{Locker: &core.HapaxLock{}}
			},
			sim: simlocks.HapaxMaker,
		},
		{
			Name: "reciprocating", Aliases: []string{"recip"},
			Doc: "Reciprocating lock: one arrivals word, LIFO push, segments served in alternating order with bounded bypass",
			native: func() *Native {
				return &Native{Locker: &core.RecipLock{}}
			},
			sim: simlocks.RecipMaker,
		},
		// Simulator-only algorithms from the paper's evaluation, in Table 1
		// order.
		{
			Name: "stock-qspinlock", Doc: "Linux qspinlock model (pre-CNA mainline)",
			sim: simlocks.QSpinLockMaker,
		},
		{
			Name: "cna", Doc: "compact NUMA-aware qspinlock: main + secondary queue",
			sim: simlocks.CNAMaker,
		},
		{
			Name: "cohort", Doc: "lock cohorting: global lock + per-socket locks",
			sim: simlocks.CohortMaker,
		},
		{
			Name: "hmcs", Doc: "hierarchical MCS with per-socket levels",
			sim: simlocks.HMCSMaker,
		},
		{
			Name: "cst", Doc: "CST: hierarchical blocking lock with dynamic per-socket structures",
			Caps: CapBlocking, sim: simlocks.CSTMaker,
		},
		{
			Name: "malthusian", Doc: "Malthusian lock: culls waiters to a passive list",
			Caps: CapBlocking, sim: simlocks.MalthusianMaker,
		},
		{
			Name: "mcstp", Doc: "MCS time-published: waiters abandon on timeout",
			Caps: CapAbortable, sim: simlocks.MCSTPMaker,
		},
		{
			Name: "pthread", Doc: "futex-based pthread mutex model",
			Caps: CapBlocking, sim: simlocks.PthreadMaker,
		},
		{
			Name: "mutexee", Doc: "Mutexee: spin-then-futex with handover hints",
			Caps: CapBlocking, sim: simlocks.MutexeeMaker,
		},
		{
			Name: "stock-mutex", Doc: "Linux blocking mutex model (optimistic spin + wait list)",
			Caps: CapBlocking, sim: simlocks.LinuxMutexMaker,
		},
		// Variants of the algorithms above (heap-node deployments, ablation
		// stages, policy variants), sorted by name. Table 1 leaves them out:
		// they would double it without adding a distinct algorithm.
		{
			Name: "cna-heap", Doc: "CNA with heap-allocated queue nodes",
			sim: simlocks.CNAHeapMaker,
		},
		{
			Name: "hmcs-heap", Doc: "HMCS with heap-allocated queue nodes",
			sim: simlocks.HMCSHeapMaker,
		},
		{
			Name: "mcs-heap", Doc: "MCS with heap-allocated queue nodes (userspace deployment)",
			sim: simlocks.MCSHeapMaker,
		},
		{
			Name: "shfl+qlast", Doc: "ShflLock ablation stage 3 (full): qlast shortcut",
			Caps: CapAbortable, sim: func() simlocks.Maker { return simlocks.ShflLockAblationMaker(3) },
		},
		{
			Name: "shfl+shuffler", Doc: "ShflLock ablation stage 1: single persistent shuffler",
			Caps: CapAbortable, sim: func() simlocks.Maker { return simlocks.ShflLockAblationMaker(1) },
		},
		{
			Name: "shfl+shufflers", Doc: "ShflLock ablation stage 2: shuffler role is passed",
			Caps: CapAbortable, sim: func() simlocks.Maker { return simlocks.ShflLockAblationMaker(2) },
		},
		{
			Name: "shfl-base", Doc: "ShflLock ablation stage 0: plain TAS+MCS, no shuffling",
			Caps: CapAbortable, sim: func() simlocks.Maker { return simlocks.ShflLockAblationMaker(0) },
		},
		{
			Name: "shfllock-b-numa", Doc: "blocking ShflLock variant: stealing restricted to the holder's socket",
			Caps: CapBlocking | CapAbortable, sim: simlocks.ShflLockBNUMAStealMaker,
		},
		{
			Name: "shfllock-prio", Doc: "ShflLock deployment with priority-carrying acquisition",
			Caps: CapAbortable | CapPriority, sim: simlocks.ShflLockPriorityMaker,
		},
		// Simulator-only readers-writer locks.
		{
			Name: "stock-rwsem", Doc: "Linux rwsem model",
			Caps: CapRW | CapBlocking, simRW: simlocks.RWSemMaker,
		},
		{
			Name: "cohort-rw", Doc: "cohort readers-writer lock",
			Caps: CapRW, simRW: simlocks.CohortRWMaker,
		},
		{
			Name: "cst-rw", Doc: "CST readers-writer lock",
			Caps: CapRW | CapBlocking, simRW: simlocks.CSTRWMaker,
		},
		{
			Name: "stock-rwsem+bravo", Doc: "Linux rwsem with the BRAVO distributed-reader front end",
			Caps: CapRW | CapBlocking, simRW: func() simlocks.RWMaker { return simlocks.BravoMaker(simlocks.RWSemMaker()) },
		},
		{
			Name: "shfllock-rw+bravo", Doc: "readers-writer ShflLock with the BRAVO reader front end",
			Caps: CapRW | CapBlocking, simRW: func() simlocks.RWMaker { return simlocks.BravoMaker(simlocks.ShflRWMaker()) },
		},
	}
}
