package kvserver

import (
	"context"
	"time"

	"shfllock/internal/lockstat"
	"shfllock/internal/runtimeq"
	"shfllock/internal/shuffle"
)

// controller is the adaptive layer: lockstat as a live control signal. It
// polls every shard's site on an interval, diffs against the previous
// snapshot (the lockstat interval API), and decides per shard — from the
// traffic it actually served, not a global average — along two
// independent axes:
//
// Shape (RW vs plain mutex), from the read fraction:
//
//   - read fraction >= ctlHiRead: readers dominate; shared acquisitions keep
//     point reads out of the writer queue and long scans stop blocking
//     them → an RW lock.
//   - read fraction <= ctlLoRead: writers dominate; the RW write path (queue
//     on the ordering mutex, stop readers, drain, claim) is pure overhead
//     when there is nobody to share with → a plain mutex.
//
// Family (shfl vs sync), from the abort fraction: the ShflLocks abort a
// timed-out acquisition by abandoning the qnode in place, and every
// corpse lengthens the grant walks of the waiters behind it. Under light
// abort traffic the shuffled queue earns its keep, but when deadline
// pressure is the workload — aborts a sizable fraction of attempts, each
// failure re-offered immediately — the reclaim machinery itself becomes
// the contended path and feeds back into more aborts. The abort fraction
// is exactly the lockstat signal for that regime:
//
//   - aborts/attempts >= ctlHiAbort, past shuffle.Storm's absolute floor:
//     abort storm; flee to the sync family's detached futex waiters.
//   - aborts/attempts <= ctlLoAbort: pressure gone; return to the home
//     family (Config.CtlHome).
//
// The home family is where the calm branch points. It defaults to shfl
// only when the runtime has real parallelism: shuffling's payoffs — NUMA
// batching, waking a spinning waiter instead of a parked one — need
// concurrent spinners to exist, and on a single-P runtime a userspace
// queue lock cannot beat the futex-backed sync primitives (every handoff
// is a scheduler round trip either way, and the queue adds bookkeeping).
// There the home is sync and the family axis engages only as the
// abort-storm escape hatch.
//
// Two stabilizers keep it from thrashing, both in the shuffle.Governor it
// shares with the "auto" meta-policy: a shard must see at least minOps
// acquisition attempts in an interval to be judged at all (idle shards
// keep their lock), and the same verdict must repeat in consecutive
// intervals before the handover runs (hysteresis — the band between the lo
// and hi thresholds of each axis also always votes "stay"). A handover
// drains the shard (shard.swapLock), so at most one switch per shard per
// interval and the switch itself is the only write the shard sees from
// the controller.
type controller struct {
	srv      *Server
	interval time.Duration
	homeSync bool // calm-branch family: true means sync is home
	minOps   uint64

	prev []lockstat.Report
	gov  []shuffle.Governor
}

// The controller's thresholds, per axis.
const (
	ctlHiRead  = 0.55 // read fraction at/above which a shard wants RW
	ctlLoRead  = 0.30 // read fraction at/below which a shard wants a mutex
	ctlHiAbort = 0.05 // abort fraction at/above which a shard flees to sync
	ctlLoAbort = 0.01 // abort fraction at/below which it returns home
)

func newController(s *Server) *controller {
	return &controller{
		srv:      s,
		interval: s.cfg.CtlInterval,
		homeSync: s.cfg.CtlHome == "sync",
		minOps:   s.cfg.CtlMinOps,
		prev:     make([]lockstat.Report, len(s.shards)),
		gov:      make([]shuffle.Governor, len(s.shards)),
	}
}

// run polls until ctx is cancelled.
func (c *controller) run(ctx context.Context) {
	ticker := time.NewTicker(c.interval)
	defer ticker.Stop()
	for i, sh := range c.srv.shards {
		c.prev[i] = sh.site.Report()
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			c.tick()
		}
	}
}

// tick evaluates every shard once.
func (c *controller) tick() {
	for i, sh := range c.srv.shards {
		cur := sh.site.Report()
		d := lockstat.Diff(c.prev[i], cur)
		c.prev[i] = cur
		c.decide(i, sh, d)
	}
}

// decide applies the two-axis threshold + hysteresis policy to one
// shard's interval.
func (c *controller) decide(i int, sh *shard, d lockstat.Report) {
	attempts := d.Acquires + d.Aborts
	cur := sh.box.Load().impl
	isSync, isRW := implAxes(cur)

	// The storm verdict needs shuffle.Storm's absolute floor as well as the
	// fraction, so one unlucky timeout on a quiet shard cannot start a
	// drain-stall flap.
	var abortFrac float64
	if attempts > 0 {
		abortFrac = float64(d.Aborts) / float64(attempts)
	}
	storm := shuffle.Storm(d.Aborts, abortFrac, ctlHiAbort)
	switch {
	case storm:
		isSync = true
	case abortFrac <= ctlLoAbort:
		isSync = c.homeSync
	}
	if d.Acquires > 0 {
		readFrac := float64(d.ReadAcquires) / float64(d.Acquires)
		switch {
		case readFrac >= ctlHiRead:
			isRW = true
		case readFrac <= ctlLoRead:
			isRW = false
		}
	}
	want := implFor(isSync, isRW)

	// Oversubscription axis: while goroutines outnumber Ps past the
	// runtimeq factor, socket grouping is meaningless (waiters migrate
	// between Ps) and long spin budgets burn the Ps the lock holder needs —
	// the goroutine-native family exists for exactly this regime, so it
	// overrides the mutex-shaped verdict from either home. Two carve-outs:
	// an abort storm still flees to sync (goro waiters abandon qnodes like
	// any ShflLock, so the reclaim feedback loop applies to it too), and RW
	// verdicts keep their reader path (goro is mutex-shaped).
	if !storm && !isRW && runtimeq.Oversubscribed() {
		want = ImplGoro
	}

	if c.gov[i].Vote(attempts, c.minOps, want, cur) {
		sh.swapLock(want)
	}
}

// implAxes decomposes a lock impl name into the controller's two axes.
// ImplGoro deliberately reads as (sync=false, rw=false): when the runtime
// stops being oversubscribed the override above no longer fires, the plain
// axes point back at the home mutex, and decide swaps away on its own.
func implAxes(impl string) (isSync, isRW bool) {
	return impl == ImplSyncRW || impl == ImplSyncMutex,
		impl == ImplShflRW || impl == ImplSyncRW
}

// implFor composes the two axes back into a lock impl name.
func implFor(isSync, isRW bool) string {
	switch {
	case isSync && isRW:
		return ImplSyncRW
	case isSync:
		return ImplSyncMutex
	case isRW:
		return ImplShflRW
	default:
		return ImplShflMutex
	}
}
