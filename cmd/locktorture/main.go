// Command locktorture stress-tests the native lock implementations the way
// the kernel's locktorture module does: a mix of lockers with random hold
// and think times, periodic TryLock barging, and continuous invariant
// checking (single writer, bounded readers).
//
// With -lockstat the tortured lock is wrapped in a lockstat site: a live
// lock_stat-style report is printed once a second and a final report (with
// cross-counter consistency verification) after the run.
//
// With -abort-frac a fraction of acquisitions run abortable — alternating
// LockTimeout and LockContext with tight random budgets — so the
// abandonment protocol is tortured alongside plain acquisitions.
//
// With -chaos the torture runs on the simulator instead: a seeded,
// replayable fault schedule (shuffler preemption, holder stalls, waiter
// timeouts, spurious wakeups) whose fault log and summary are
// byte-identical for a given -chaos-seed. -chaos-deadlock injects a
// permanent holder stall and expects the starvation watchdog to fire and
// dump the frozen scheduler state instead of hanging.
//
// The -lock value set, its help text, and every capability check (-policy,
// -abort-frac, RW vs mutex torture) come from the lock registry
// (internal/lockreg), so adding an algorithm there makes it torturable here
// with no edit to this file.
//
// Usage: locktorture [-lock <name>] [-list]
// [-policy numa|prio|...] [-threads 16] [-duration 5s] [-sockets 4]
// [-lockstat] [-abort-frac 0.2] [-watchdog 10s] [-deadline 2m]
// [-chaos] [-chaos-seed 42] [-chaos-lock shfllock-b] [-chaos-deadlock]
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shfllock/internal/chaos"
	"shfllock/internal/core"
	"shfllock/internal/lockreg"
	"shfllock/internal/lockstat"
	"shfllock/internal/shuffle"
	"shfllock/internal/sim"
)

type locker interface {
	Lock()
	Unlock()
	TryLock() bool
}

type rwLocker interface {
	Lock()
	Unlock()
	RLock()
	RUnlock()
}

// abortLocker is the abortable-acquisition surface of the native ShflLock
// family (SpinLock, Mutex, RWMutex).
type abortLocker interface {
	LockTimeout(d time.Duration) bool
	LockContext(ctx context.Context) error
}

func main() {
	var (
		lockName  = flag.String("lock", "mutex", "lock to torture: "+lockreg.NativeFlagHelp())
		listLocks = flag.Bool("list", false, "list the torturable locks with substrates and capabilities")
		threads   = flag.Int("threads", 16, "torture goroutines")
		duration  = flag.Duration("duration", 5*time.Second, "how long to run")
		sockets   = flag.Int("sockets", 4, "sockets assumed by the shuffling policy")
		policy    = flag.String("policy", "", "shuffling policy for the ShflLock family (default numa; \"auto\" is the self-tuning meta-policy and implies -lockstat)")
		stat      = flag.Bool("lockstat", false, "instrument the lock and print lock_stat-style reports")
		abortFrac = flag.Float64("abort-frac", 0, "fraction of acquisitions run via LockTimeout/LockContext (ShflLock family only)")
		watchdog  = flag.Duration("watchdog", 0, "dump goroutine stacks and exit 2 if no acquisition completes for this long")
		deadline  = flag.Duration("deadline", 0, "dump goroutine stacks and exit 2 if the whole run exceeds this")

		chaosMode     = flag.Bool("chaos", false, "run the deterministic simulated chaos torture instead")
		chaosSeed     = flag.Int64("chaos-seed", 42, "fault-schedule seed for -chaos (same seed => byte-identical output)")
		chaosLock     = flag.String("chaos-lock", "shfllock-b", "simulated lock to torture under -chaos")
		chaosDeadlock = flag.Bool("chaos-deadlock", false, "inject a permanent holder stall; the run passes only if the watchdog fires")
		chaosFlip     = flag.Bool("chaos-flip", false, "arm the policy-flip fault: forced live policy transitions at the mid-shuffle, abort-reclaim and head-abdication moments")
	)
	flag.Parse()
	core.SetSockets(*sockets)

	if *listLocks {
		fmt.Printf("%-18s %-10s %s\n", "lock", "substrates", "capabilities")
		for _, e := range lockreg.All() {
			fmt.Printf("%-18s %-10s %s\n", e.Name, e.Substrates(), e.Caps)
		}
		return
	}
	if *chaosMode {
		runChaos(*chaosSeed, *chaosLock, *chaosDeadlock, *chaosFlip)
		return
	}
	if *deadline > 0 {
		time.AfterFunc(*deadline, func() {
			dumpStacks(fmt.Sprintf("DEADLINE EXCEEDED: run did not finish within %v", *deadline))
		})
	}

	var pol shuffle.Policy
	var meta *shuffle.Meta
	if *policy != "" {
		if pol = shuffle.ByName(*policy); pol == nil {
			fmt.Fprintf(os.Stderr, "unknown policy %q (have: %s)\n",
				*policy, strings.Join(shuffle.Names(), " "))
			os.Exit(2)
		}
		if m, isMeta := pol.(*shuffle.Meta); isMeta {
			// The meta-policy tunes itself from the lock's own lockstat
			// interval diffs, so -policy auto forces instrumentation on.
			meta = m
			*stat = true
		}
	}

	// The flag combination states the required capabilities; construction
	// through the registry fails loudly if the named algorithm lacks one
	// (e.g. -abort-frac on a lock without abortable acquisition).
	ent, ok := lockreg.Find(*lockName)
	if !ok || !ent.HasNative() {
		fmt.Fprintln(os.Stderr, lockreg.UnknownNative(*lockName))
		os.Exit(2)
	}
	var need []lockreg.Cap
	if pol != nil {
		need = append(need, lockreg.CapPolicy)
	}
	if *abortFrac > 0 {
		need = append(need, lockreg.CapAbortable)
	}

	// attachMeta wires the meta-policy's observation loop to the tortured
	// lock's own site and arranges the stage-transition tail to print at
	// exit. Call after Instrument has registered the site.
	attachMeta := func() {
		if meta == nil {
			return
		}
		meta.SetSource(lockstat.MetaSource(lockstat.Default.Site("torture/" + ent.Name)))
		meta.SetClock(func() uint64 { return uint64(time.Now().UnixNano()) })
	}
	printTransitions := func() {
		if meta == nil {
			return
		}
		fmt.Println("--- policy transitions (auto) ---")
		fmt.Print(meta.Log().String())
	}

	if ent.Has(lockreg.CapRW) {
		h, err := ent.NewNativeRW(need...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		// Only override the policy when one was asked for: the goro
		// constructor pre-installs its own, and SetPolicy(nil) would
		// silently replace it with the NUMA default.
		if pol != nil {
			h.SetPolicy(pol)
		}
		var l rwLocker = h.RWLocker
		if *stat {
			l = lockstat.InstrumentRW(h.RWLocker, "torture/"+ent.Name)
			attachMeta()
			defer finalReport()
			stopLive := liveReports(*duration)
			defer stopLive()
		}
		defer printTransitions()
		tortureRW(ent.Name, l, h.Abort, *threads, *duration, *abortFrac, *watchdog)
		return
	}

	h, err := ent.NewNative(need...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if pol != nil {
		h.SetPolicy(pol)
	}
	var l locker = h.Locker
	var al abortLocker
	if h.Abort != nil {
		al = h.Abort
	}
	if *stat {
		// Instrument wraps the underlying lock itself (not the registry
		// handle), so its probe discovery still sees SetProbe on the
		// ShflLocks and abortable acquisitions made directly on the lock
		// feed the abort/reclaim counters; the wrapper adds wait/hold
		// sampling on the plain path.
		l = lockstat.Instrument(h.Locker, "torture/"+ent.Name)
		attachMeta()
		defer finalReport()
		stopLive := liveReports(*duration)
		defer stopLive()
	}
	defer printTransitions()

	var stop atomic.Bool
	var inCS atomic.Int32
	var acquires, tries, violations atomic.Int64
	var timeouts, abortOK atomic.Int64
	stopWD := startWatchdog(*watchdog, func() int64 { return acquires.Load() })
	defer stopWD()
	var wg sync.WaitGroup
	for g := 0; g < *threads; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				got := false
				switch {
				case al != nil && rng.Float64() < *abortFrac:
					got = abortableAcquire(al, rng)
					if got {
						abortOK.Add(1)
					} else {
						timeouts.Add(1)
					}
				case rng.Intn(8) == 0:
					got = l.TryLock()
					tries.Add(1)
				default:
					l.Lock()
					got = true
				}
				if !got {
					continue
				}
				if inCS.Add(1) != 1 {
					violations.Add(1)
				}
				for i := 0; i < rng.Intn(200); i++ {
					_ = i
				}
				inCS.Add(-1)
				l.Unlock()
				acquires.Add(1)
			}
		}(int64(g) + 1)
	}
	time.Sleep(*duration)
	stop.Store(true)
	wg.Wait()

	fmt.Printf("lock=%s threads=%d duration=%v\n", ent.Name, *threads, *duration)
	fmt.Printf("acquires=%d trylocks=%d violations=%d\n", acquires.Load(), tries.Load(), violations.Load())
	if *abortFrac > 0 {
		fmt.Printf("abortable: acquired=%d timeouts=%d\n", abortOK.Load(), timeouts.Load())
	}
	if violations.Load() > 0 {
		fmt.Println("TORTURE FAILED: mutual exclusion violated")
		os.Exit(1)
	}
	fmt.Println("torture passed")
}

// abortableAcquire alternates the two abort surfaces with tight budgets so
// both the timeout and the context cancellation paths abandon for real.
func abortableAcquire(al abortLocker, rng *rand.Rand) bool {
	d := time.Duration(rng.Intn(200)) * time.Microsecond
	if rng.Intn(2) == 0 {
		return al.LockTimeout(d)
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return al.LockContext(ctx) == nil
}

// runChaos executes the simulated chaos torture: deterministic for a seed,
// so two invocations with the same flags print byte-identical output. The
// lock name goes through the registry, so both canonical names
// ("shfl-mutex") and simulator maker names ("shfllock-b") work; abort
// injection is disarmed automatically for locks without the capability.
func runChaos(seed int64, lock string, deadlock, flip bool) {
	ent, ok := lockreg.Find(lock)
	if !ok {
		fmt.Fprintln(os.Stderr, lockreg.UnknownSim(lock))
		os.Exit(2)
	}
	mk, simOK := ent.SimMaker()
	if !simOK {
		fmt.Fprintf(os.Stderr, "lock %q has no simulated mutex implementation (substrates: %s)\n", ent.Name, ent.Substrates())
		os.Exit(2)
	}
	cfg := chaos.Defaults(seed)
	if flip {
		cfg = chaos.FlipDefaults(seed)
	}
	cfg.Lock = mk
	if !ent.Has(lockreg.CapAbortable) {
		cfg.AbortFrac = 0
	}
	if deadlock {
		cfg.Deadlock = true
		cfg.WatchdogInterval = 1_000_000
		cfg.WatchdogThreshold = 20_000_000
	}
	r, err := chaos.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// The flip marker is appended only when armed so the pre-existing
	// flip-free golden stays byte-identical.
	header := fmt.Sprintf("chaos lock=%s seed=%d workers=%d iters=%d deadlock=%v",
		cfg.Lock.Name, cfg.Seed, cfg.Workers, cfg.Iters, cfg.Deadlock)
	if flip {
		header += " flip=true"
	}
	fmt.Println(header)
	fmt.Print(r.Log.String())
	fmt.Print(r.Summary())
	if r.MutualExclusionViolations > 0 {
		fmt.Println("CHAOS FAILED: mutual exclusion violated")
		os.Exit(1)
	}
	if flip && !deadlock {
		// The flip certification is only meaningful if the schedule actually
		// hit all three transition-adversarial moments and every acquisition
		// is accounted for afterwards.
		for _, m := range []sim.FlipMoment{sim.FlipMidShuffle, sim.FlipAbortReclaim, sim.FlipHeadAbdication} {
			if r.Log.CountArg(chaos.EvPolicyFlip, uint64(m)) == 0 {
				fmt.Printf("CHAOS FAILED: no policy flip landed at the %s moment\n", m)
				os.Exit(1)
			}
		}
		if r.Ops+r.Timeouts != r.Expected {
			fmt.Printf("CHAOS FAILED: lost wakeups — ops=%d timeouts=%d expected=%d\n", r.Ops, r.Timeouts, r.Expected)
			os.Exit(1)
		}
		if r.QueueResidue != "" {
			fmt.Printf("CHAOS FAILED: queue residue after run: %s\n", r.QueueResidue)
			os.Exit(1)
		}
	}
	if deadlock {
		if !r.WatchdogFired {
			fmt.Println("CHAOS FAILED: deadlock injected but watchdog never fired")
			os.Exit(1)
		}
		fmt.Println("--- watchdog post-mortem ---")
		fmt.Print(r.Report)
		fmt.Println("chaos deadlock detected as expected")
		return
	}
	if r.WatchdogFired {
		fmt.Printf("CHAOS FAILED: watchdog fired without an injected deadlock: %s\n", r.WatchdogReason)
		os.Exit(1)
	}
	fmt.Println("chaos torture passed")
}

// dumpStacks prints every goroutine's stack and exits 2 — the torture's
// answer to a hang: diagnose, don't dangle.
func dumpStacks(why string) {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	fmt.Fprintf(os.Stderr, "%s\ngoroutine dump:\n%s\n", why, buf[:n])
	os.Exit(2)
}

// startWatchdog dumps stacks and exits if the progress counter stops
// moving for a whole interval. Returns a stop func; no-op when d is 0.
func startWatchdog(d time.Duration, progress func() int64) func() {
	if d <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(d)
		defer tick.Stop()
		last := int64(-1)
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				cur := progress()
				if cur == last {
					dumpStacks(fmt.Sprintf("WATCHDOG: no lock acquired for %v (stuck at %d)", d, cur))
				}
				last = cur
			}
		}
	}()
	return func() { close(done) }
}

// liveReports prints the lockstat report once a second while the torture
// runs; the returned func stops it.
func liveReports(duration time.Duration) func() {
	if duration < 2*time.Second {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fmt.Println("--- live lock_stat ---")
				lockstat.WriteText(os.Stdout, lockstat.Default.Reports())
			}
		}
	}()
	return func() { close(done) }
}

// finalReport prints the quiescent report and fails the run if any
// cross-counter invariant is broken (contended > acquires, histogram mass
// != acquires).
func finalReport() {
	fmt.Println("--- final lock_stat ---")
	reps := lockstat.Default.Reports()
	lockstat.WriteText(os.Stdout, reps)
	for _, r := range reps {
		if msg := r.Consistent(); msg != "" {
			fmt.Printf("LOCKSTAT INCONSISTENT: %s\n", msg)
			os.Exit(1)
		}
	}
	fmt.Println("lockstat counters consistent")
}

func tortureRW(name string, l rwLocker, al abortLocker, threads int, duration time.Duration, abortFrac float64, watchdog time.Duration) {
	var stop atomic.Bool
	var readers, writers atomic.Int32
	var rops, wops, violations, timeouts atomic.Int64
	stopWD := startWatchdog(watchdog, func() int64 { return rops.Load() + wops.Load() })
	defer stopWD()
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				if rng.Intn(10) == 0 {
					if abortFrac > 0 && rng.Float64() < abortFrac {
						if !abortableAcquire(al, rng) {
							timeouts.Add(1)
							continue
						}
					} else {
						l.Lock()
					}
					if writers.Add(1) != 1 || readers.Load() != 0 {
						violations.Add(1)
					}
					writers.Add(-1)
					l.Unlock()
					wops.Add(1)
				} else {
					l.RLock()
					readers.Add(1)
					if writers.Load() != 0 {
						violations.Add(1)
					}
					readers.Add(-1)
					l.RUnlock()
					rops.Add(1)
				}
			}
		}(int64(g) + 1)
	}
	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	fmt.Printf("lock=%s threads=%d duration=%v\n", name, threads, duration)
	fmt.Printf("reads=%d writes=%d violations=%d\n", rops.Load(), wops.Load(), violations.Load())
	if abortFrac > 0 {
		fmt.Printf("abortable: timeouts=%d\n", timeouts.Load())
	}
	if violations.Load() > 0 {
		fmt.Println("TORTURE FAILED")
		os.Exit(1)
	}
	fmt.Println("torture passed")
}
