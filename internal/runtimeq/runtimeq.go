// Package runtimeq answers the scheduler questions the goroutine-native
// lock family needs: "which P am I (approximately) on?", "how many Ps are
// there right now?" and "are there far more runnable goroutines than Ps?".
//
// The paper's shuffling policies (§4) assume waiters are pinned OS threads:
// a waiter's CPU — and therefore its NUMA socket — is stable for the whole
// queue wait, and oversubscription is visible to the kernel patch as
// NrRunning > #cores. Goroutines break both assumptions. Go exposes no
// portable current-P query, GOMAXPROCS can change at any time, and the
// number of goroutines bears no fixed relation to the number of CPUs. This
// package rebuilds usable approximations of all three signals from what the
// runtime does expose, cheap enough to consult on lock slow paths:
//
//   - PGroup: an approximate current-P bucket, derived from a sync.Pool of
//     identity tokens. sync.Pool storage is per-P under the hood, so a
//     Get/Put pair returns whatever token this P used last — after one warm
//     acquisition per P the token (and so the group id) is stable for as
//     long as the goroutine stays on that P. That is exactly the stability
//     CNA-style grouping needs (group identity must persist across the
//     queue wait); occasional migrations or collisions merely merge groups
//     for one acquisition, which costs batching efficiency, never
//     correctness.
//   - Procs: GOMAXPROCS, cached and refreshed on a coarse epoch or after a
//     short staleness bound, because runtime.GOMAXPROCS(0) takes the
//     scheduler lock and is too expensive per acquisition.
//   - Oversubscribed: the userspace analog of the kernel patch's
//     "NrRunning > #cores → park immediately" guard, computed from the
//     runtime/metrics goroutine count against Procs.
//
// Refreshing is driven by Tick, which callers invoke once per contended
// acquisition: every refreshEpoch-th tick re-reads the runtime, and so does
// the first tick after staleAfter has passed since the last re-read, so a
// lightly contended lock cannot keep a stale view forever. Between
// refreshes every query is one or two atomic loads.
package runtimeq

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// refreshEpoch is how many Ticks pass between runtime re-reads. Contended
// acquisitions arrive at MHz rates under load, so even a large epoch
// re-reads the runtime many times a second; an idle lock simply keeps the
// last values, which is fine — nothing is waiting on them.
const refreshEpoch = 1024

// staleAfter bounds the cache's age by time as well as by ticks: a lock
// that queues only a few times a second would otherwise wait minutes for
// its epoch. The check costs one monotonic clock read per Tick.
const staleAfter = 10 * time.Millisecond

// DefaultOversubFactor is the goroutines-per-P multiple above which the
// runtime counts as oversubscribed. The kernel guard fires at
// NrRunning > #cores; userspace cannot see run-queue length, only the
// total goroutine count, which includes parked-but-live goroutines (a
// server holds thousands of idle connection handlers without any CPU
// pressure). The factor absorbs that slack: below it, spinning waiters
// mostly cost idle CPU; above it, every spinning waiter is statistically
// displacing a runnable goroutine — plausibly the lock holder itself.
const DefaultOversubFactor = 4

var (
	ticks    atomic.Uint64
	procs    atomic.Int64 // cached GOMAXPROCS
	goros    atomic.Int64 // cached goroutine count
	oversub  atomic.Bool  // cached goros > factor*procs
	factor   atomic.Int64
	override atomic.Int32 // 0 auto, 1 forced oversubscribed, 2 forced not
	lastRead atomic.Int64 // clockBase offset of the last refresh, ns

	clockBase = time.Now() // time.Since(clockBase) reads the monotonic clock

	refreshMu     sync.Mutex
	goroutineSamp = []metrics.Sample{{Name: "/sched/goroutines:goroutines"}}
)

func init() {
	factor.Store(DefaultOversubFactor)
	Refresh()
}

// Tick advances the refresh epoch; callers invoke it once per contended
// lock acquisition. It refreshes on the epoch boundary or once the cache is
// older than staleAfter; the CAS on lastRead lets exactly one of many
// concurrent tickers take a stale refresh. Cost otherwise: one atomic add
// and one clock read.
func Tick() {
	if ticks.Add(1)%refreshEpoch == 0 {
		Refresh()
		return
	}
	now := int64(time.Since(clockBase))
	if last := lastRead.Load(); now-last > int64(staleAfter) && lastRead.CompareAndSwap(last, now) {
		Refresh()
	}
}

// Refresh re-reads GOMAXPROCS and the goroutine count immediately and
// recomputes the oversubscription verdict. Exported so programs that just
// changed GOMAXPROCS (or tests) can resync without waiting out an epoch.
func Refresh() {
	refreshMu.Lock()
	defer refreshMu.Unlock()
	lastRead.Store(int64(time.Since(clockBase)))
	p := int64(runtime.GOMAXPROCS(0))
	procs.Store(p)
	metrics.Read(goroutineSamp)
	var g int64
	if v := goroutineSamp[0].Value; v.Kind() == metrics.KindUint64 {
		g = int64(v.Uint64())
	} else {
		// The metric is part of the stable runtime/metrics set; this
		// branch exists for hypothetical future runtimes that drop it.
		g = int64(runtime.NumGoroutine())
	}
	goros.Store(g)
	oversub.Store(g > factor.Load()*p)
}

// Procs returns the cached GOMAXPROCS (≥ 1), at most one refresh epoch or
// one staleAfter bound (whichever a Tick reaches first) stale.
func Procs() int {
	if p := procs.Load(); p > 0 {
		return int(p)
	}
	return 1
}

// Goroutines returns the cached runtime goroutine count.
func Goroutines() int { return int(goros.Load()) }

// Buckets returns the number of P-groups PGroup spreads waiters over:
// exactly Procs. More buckets than Ps would split same-P waiters apart;
// fewer would merge distinct Ps and forfeit batching.
func Buckets() int { return Procs() }

// Oversubscribed reports whether goroutines outnumber Ps by more than the
// oversubscription factor (cached, epoch-refreshed). Lock code treats true
// as "a spinning waiter is burning a timeslice somebody runnable needs".
func Oversubscribed() bool {
	switch override.Load() {
	case 1:
		return true
	case 2:
		return false
	}
	return oversub.Load()
}

// SetOversubFactor changes the goroutines-per-P threshold (minimum 1) and
// recomputes the verdict immediately.
func SetOversubFactor(f int) {
	if f < 1 {
		f = 1
	}
	factor.Store(int64(f))
	Refresh()
}

// OverrideOversub forces the Oversubscribed verdict, for tests and for
// callers with better knowledge (e.g. a service that knows its goroutine
// count is dominated by idle connections). ClearOversubOverride restores
// the measured verdict.
func OverrideOversub(on bool) {
	if on {
		override.Store(1)
	} else {
		override.Store(2)
	}
}

// ClearOversubOverride returns Oversubscribed to the measured verdict.
func ClearOversubOverride() { override.Store(0) }

// token is a P-affinity identity: its id was assigned once at creation and
// never changes, so whichever P holds it in its pool slot keeps reporting
// the same group.
type token struct{ id uint64 }

var nextTokenID atomic.Uint64

var tokenPool = sync.Pool{New: func() any {
	// Creation order spreads fresh tokens across buckets round-robin; the
	// point is NOT the round-robin (that was the old qnode bug) but that a
	// token is created at most once per P per GC cycle and then pinned to
	// that P's pool slot, making the id it carries stable per P.
	return &token{id: nextTokenID.Add(1) - 1}
}}

// PGroup returns the approximate current-P bucket in [0, Buckets()). Two
// calls from the same P agree (same pooled token) until a GC clears the
// pool or the goroutine migrates mid-call; two different Ps usually
// disagree. Wrong answers only merge or split policy groups for one
// acquisition.
func PGroup() uint32 {
	t := tokenPool.Get().(*token)
	id := t.id
	tokenPool.Put(t)
	return uint32(id % uint64(Buckets()))
}
