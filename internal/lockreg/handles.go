package lockreg

import (
	"context"
	"time"

	"shfllock/internal/shuffle"
)

// Locker is the mutex-shaped surface every native lock provides.
type Locker interface {
	Lock()
	Unlock()
	TryLock() bool
}

// RWLocker adds the read side.
type RWLocker interface {
	Locker
	RLock()
	RUnlock()
	TryRLock() bool
}

// Abortable is the abortable-acquisition surface (CapAbortable).
type Abortable interface {
	LockTimeout(d time.Duration) bool
	LockContext(ctx context.Context) error
}

// RWAbortable adds abortable read acquisition.
type RWAbortable interface {
	Abortable
	RLockTimeout(d time.Duration) bool
	RLockContext(ctx context.Context) error
}

// Native is a constructed native mutex plus its optional capability
// surfaces. Locker holds the lock itself — the concrete *core.Mutex,
// *sync.Mutex, ... — so instrumentation that discovers extra methods by
// type assertion (lockstat's SetProbe/TryLock probing) is handed the real
// lock, not a wrapper. A surface is nil exactly when the entry lacks the
// corresponding capability.
type Native struct {
	Locker
	Abort            Abortable                     // CapAbortable
	SetPolicy        func(shuffle.Policy)          // CapPolicy
	LockWithPriority func(prio uint64)             // CapPriority
	TransitionLog    func() *shuffle.TransitionLog // CapPolicy
}

// NativeRW is the readers-writer counterpart of Native.
type NativeRW struct {
	RWLocker
	Abort            RWAbortable                   // CapAbortable
	SetPolicy        func(shuffle.Policy)          // CapPolicy
	LockWithPriority func(prio uint64)             // CapPriority
	TransitionLog    func() *shuffle.TransitionLog // CapPolicy
}
