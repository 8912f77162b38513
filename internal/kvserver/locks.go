package kvserver

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"shfllock/internal/core"
	"shfllock/internal/lockreg"
	"shfllock/internal/lockstat"
	"shfllock/internal/shuffle"
)

// ShardLock is the small lock surface a shard needs. Exclusive and shared
// acquisitions carry the request's context so overload degrades to fast
// 503s at the lock instead of queue collapse behind it; Lock is the plain
// blocking exclusive acquisition the adaptive controller's drain step uses
// (the controller has no deadline — a handover must complete).
//
// Mutex-shaped implementations satisfy the read-side methods with their
// exclusive ones, so callers never branch on capability.
type ShardLock interface {
	LockContext(ctx context.Context) error
	Unlock()
	RLockContext(ctx context.Context) error
	RUnlock()
	Lock()
	Impl() string
	// Transitions returns the lock's epoched policy-transition record, nil
	// when the impl has none.
	Transitions() *shuffle.TransitionLog
}

// Canonical names of the lock implementations the adaptive controller
// moves between. Any registry lock is a valid static -lock choice; these
// five are the ones the controller reasons about.
const (
	ImplShflRW    = "shfl-rw"
	ImplShflMutex = "shfl-mutex"
	ImplSyncRW    = "sync-rw"
	ImplSyncMutex = "sync-mutex"
	// ImplGoro is the goroutine-native blocking ShflLock: waiters grouped
	// by approximate P instead of socket, short park budgets while the
	// runtime is oversubscribed. Mutex-shaped.
	ImplGoro = "goro"
	// ImplAdaptive is a server mode, not a lock: shards start on shfl-rw
	// and the lockstat-driven controller reshapes them at runtime.
	ImplAdaptive = "adaptive"
)

// Impls lists the static lock choices: every native lock in the registry
// (everything NewLock accepts), by canonical name.
var Impls = lockreg.NativeNames()

// NewLock builds a shard lock by name through the lock registry, feeding
// the given lockstat site. Every generation of a shard's lock attaches the
// same site, so per-shard statistics survive adaptive handovers.
//
// The wrapper is chosen by capability, not by name: RW locks keep their
// read side, abortable locks take the request context natively, and
// everything else gets the goroutine-based cancellation emulation — which
// is not an emulation artifact but the semantic difference under test: a
// waiter that cannot leave the queue still occupies a queue slot after its
// request gave up, where the abortable locks abandon their node in place.
func NewLock(impl string, site *lockstat.Site) (ShardLock, error) {
	ent, ok := lockreg.Find(impl)
	if !ok || !ent.HasNative() {
		return nil, fmt.Errorf("unknown lock impl %q (have %v)", impl, Impls)
	}
	if ent.Has(lockreg.CapRW) {
		h, err := ent.NewNativeRW()
		if err != nil {
			return nil, err
		}
		return &rwShard{impl: ent.Name, h: h, site: site, probed: attachProbe(h.RWLocker, site)}, nil
	}
	h, err := ent.NewNative()
	if err != nil {
		return nil, err
	}
	return &mutexShard{impl: ent.Name, h: h, site: site, probed: attachProbe(h.Locker, site)}, nil
}

// attachProbe connects the lock's internal event stream (steals, handoffs,
// parks, aborts) to the shard's site when the algorithm exposes one.
// Probed locks classify contention and aborts exactly; for the rest the
// wrapper classifies from the failed fast-path attempt.
func attachProbe(l any, site *lockstat.Site) bool {
	if pt, ok := l.(interface{ SetProbe(core.Probe) }); ok {
		pt.SetProbe(site.CoreProbe())
		return true
	}
	return false
}

// rwShard wraps any registry lock with a read side.
type rwShard struct {
	impl   string
	h      *lockreg.NativeRW
	site   *lockstat.Site
	probed bool
}

func (l *rwShard) Impl() string { return l.impl }

func (l *rwShard) Transitions() *shuffle.TransitionLog {
	if l.h.TransitionLog == nil {
		return nil
	}
	return l.h.TransitionLog()
}
func (l *rwShard) Lock()    { l.h.Lock(); l.site.RecordAcquire(0, false) }
func (l *rwShard) Unlock()  { l.h.Unlock() }
func (l *rwShard) RUnlock() { l.h.RUnlock() }

func (l *rwShard) LockContext(ctx context.Context) error {
	return l.acquire(ctx, false)
}

func (l *rwShard) RLockContext(ctx context.Context) error {
	return l.acquire(ctx, true)
}

func (l *rwShard) acquire(ctx context.Context, read bool) error {
	try, lock, unlock := l.h.TryLock, l.h.Lock, l.h.Unlock
	if read {
		try, lock, unlock = l.h.TryRLock, l.h.RLock, l.h.RUnlock
	}
	if try() {
		l.site.RecordAcquire(0, read)
		return nil
	}
	if !l.probed {
		l.site.RecordContended()
	}
	start := time.Now()
	var err error
	switch {
	case l.h.Abort != nil && read:
		err = l.h.Abort.RLockContext(ctx)
	case l.h.Abort != nil:
		err = l.h.Abort.LockContext(ctx)
	default:
		err = ctxAcquire(ctx, lock, unlock)
	}
	if err != nil {
		if !l.probed {
			l.site.RecordAbort()
		}
		return err
	}
	l.site.RecordAcquire(time.Since(start).Nanoseconds(), read)
	return nil
}

// mutexShard wraps any mutex-shaped registry lock; read acquisitions are
// exclusive.
type mutexShard struct {
	impl   string
	h      *lockreg.Native
	site   *lockstat.Site
	probed bool
}

func (l *mutexShard) Impl() string { return l.impl }

func (l *mutexShard) Transitions() *shuffle.TransitionLog {
	if l.h.TransitionLog == nil {
		return nil
	}
	return l.h.TransitionLog()
}
func (l *mutexShard) Lock()    { l.h.Lock(); l.site.RecordAcquire(0, false) }
func (l *mutexShard) Unlock()  { l.h.Unlock() }
func (l *mutexShard) RUnlock() { l.h.Unlock() }

func (l *mutexShard) LockContext(ctx context.Context) error {
	return l.acquire(ctx, false)
}

func (l *mutexShard) RLockContext(ctx context.Context) error {
	return l.acquire(ctx, true)
}

func (l *mutexShard) acquire(ctx context.Context, read bool) error {
	if l.h.TryLock() {
		l.site.RecordAcquire(0, read)
		return nil
	}
	if !l.probed {
		l.site.RecordContended()
	}
	start := time.Now()
	var err error
	if l.h.Abort != nil {
		err = l.h.Abort.LockContext(ctx)
	} else {
		err = ctxAcquire(ctx, l.h.Lock, l.h.Unlock)
	}
	if err != nil {
		if !l.probed {
			l.site.RecordAbort()
		}
		return err
	}
	l.site.RecordAcquire(time.Since(start).Nanoseconds(), read)
	return nil
}

// ctxAcquire adapts a blocking acquisition to context cancellation for
// locks with no abortable path: the wait happens in a helper goroutine,
// and an abandoned wait stays in the lock's queue until granted, then
// releases immediately.
func ctxAcquire(ctx context.Context, lock, unlock func()) error {
	var state atomic.Int32 // 0 pending, 1 taken by caller, 2 abandoned
	done := make(chan struct{})
	go func() {
		lock()
		if !state.CompareAndSwap(0, 1) {
			unlock()
			return
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		if state.CompareAndSwap(0, 2) {
			return context.Cause(ctx)
		}
		<-done // the grant won the race: we own the lock after all
		return nil
	}
}
