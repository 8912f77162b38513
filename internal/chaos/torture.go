package chaos

import (
	"fmt"

	"shfllock/internal/sim"
	"shfllock/internal/simlocks"
	"shfllock/internal/topology"
)

// Config describes one chaos-torture run. The zero value is not usable;
// call Defaults (or fill every field) first. Every run with the same
// Config produces a byte-identical Result.Log and identical counters.
type Config struct {
	Seed int64
	// Lock builds the lock under test; abort injection requires a lock
	// with a LockAbort method (the ShflLock family).
	Lock    simlocks.Maker
	Workers int
	Iters   int // iterations per worker

	// AbortFrac of acquisitions run abortable with a budget drawn from
	// [AbortBudgetMin, AbortBudgetMax) cycles.
	AbortFrac                      float64
	AbortBudgetMin, AbortBudgetMax uint64

	// ShufflerPreemptFrac forces a yield right after a shuffler takes the
	// role.
	ShufflerPreemptFrac float64

	// SpuriousWakeFrac arms parked waiters with a spurious wakeup after a
	// delay drawn from [SpuriousWakeMin, SpuriousWakeMax) cycles.
	SpuriousWakeFrac                 float64
	SpuriousWakeMin, SpuriousWakeMax uint64

	// HolderStallFrac stalls the lock holder inside the critical section
	// for [HolderStallMin, HolderStallMax) cycles.
	HolderStallFrac                float64
	HolderStallMin, HolderStallMax uint64

	// PolicyFlipFrac forces a live policy transition — through the lock's
	// epoched transition API — at the transition-adversarial moments
	// (mid-shuffle, abort reclaim, head abdication), switching to the next
	// name in PolicyFlipPolicies. Zero (the default) draws nothing from the
	// fault schedule, so pre-existing goldens replay unchanged.
	PolicyFlipFrac     float64
	PolicyFlipPolicies []string

	// Deadlock makes worker 0 acquire and then stall forever mid-run: the
	// scenario the watchdog must catch.
	Deadlock bool

	// Watchdog cadence: check every Interval cycles, fire when a live
	// worker's last beat is older than Threshold.
	WatchdogInterval  uint64
	WatchdogThreshold uint64
}

// Defaults is the standard chaos configuration for the given seed: the
// blocking ShflLock on an over-subscribed laptop topology with every fault
// class armed.
func Defaults(seed int64) Config {
	return Config{
		Seed:                seed,
		Lock:                simlocks.ShflLockBMaker(),
		Workers:             12, // 8 cores: parking paths stay hot
		Iters:               40,
		AbortFrac:           0.25,
		AbortBudgetMin:      50_000,
		AbortBudgetMax:      400_000,
		ShufflerPreemptFrac: 0.10,
		SpuriousWakeFrac:    0.20,
		SpuriousWakeMin:     5_000,
		SpuriousWakeMax:     80_000,
		HolderStallFrac:     0.05,
		HolderStallMin:      20_000,
		HolderStallMax:      200_000,
		WatchdogInterval:    2_000_000,
		WatchdogThreshold:   200_000_000,
	}
}

// FlipDefaults is Defaults with the policy-flip fault armed, cycling
// through in-family and cross-stage targets so one run certifies several
// from/to pairs at every moment. The abort knobs are sharpened relative
// to Defaults: head abdication only exists when a timed waiter reaches
// the queue head and then times out spinning on the TAS word, which needs
// budgets short enough — and holder stalls long enough — for the head to
// give up while the lock is held. The default budgets never produce one.
func FlipDefaults(seed int64) Config {
	cfg := Defaults(seed)
	cfg.AbortFrac = 0.40
	cfg.AbortBudgetMin = 20_000
	cfg.AbortBudgetMax = 150_000
	cfg.HolderStallFrac = 0.15
	cfg.HolderStallMin = 100_000
	cfg.HolderStallMax = 400_000
	cfg.PolicyFlipFrac = 0.50
	cfg.PolicyFlipPolicies = []string{"ablation-base", "numa", "ablation+shufflers", "prio"}
	return cfg
}

// Result is everything a chaos run observed.
type Result struct {
	Log      *Log
	Cycles   uint64 // virtual time at exit (or abort)
	Ops      uint64 // completed critical sections
	Timeouts uint64 // abortable acquisitions that gave up
	Counters simlocks.Counters

	WatchdogFired  bool
	WatchdogReason string
	Report         string // post-mortem (only when the watchdog fired)

	MutualExclusionViolations int

	// Policy-flip certification (populated only when the fault is armed,
	// so Summary stays byte-identical for flip-free goldens).
	FlipArmed   bool
	PolicyFlips int
	// Expected is workers*iters: every acquisition must end in a completed
	// critical section or a logged timeout, or a wakeup was lost.
	Expected uint64
	// QueueResidue is "" when the queue drained cleanly (see
	// simlocks.ShflLock.QueueResidue).
	QueueResidue string
	// Transitions is the lock's TransitionLog rendering at exit.
	Transitions string
}

// abortableLock is the capability the abort injection needs; the ShflLock
// family provides it.
type abortableLock interface {
	LockAbort(t *sim.Thread, budget uint64) bool
}

// Run executes one chaos-torture run and returns its deterministic result.
func Run(cfg Config) (*Result, error) {
	log := &Log{}
	plan := NewPlan(cfg, log)
	res := &Result{Log: log}

	e := sim.NewEngine(sim.Config{Topo: topology.Laptop(), Seed: cfg.Seed, HardStop: 2_000_000_000_000})
	e.SetInjector(plan)
	l := cfg.Lock.New(e, "chaos/"+cfg.Lock.Name)
	al, abortable := l.(abortableLock)
	if cfg.AbortFrac > 0 && !abortable {
		return nil, fmt.Errorf("chaos: lock %q does not support abortable acquisition", cfg.Lock.Name)
	}
	data := e.Mem().Alloc("chaos/csdata", 2)
	wd := NewWatchdog(e, log, cfg.Workers, cfg.WatchdogInterval, cfg.WatchdogThreshold)
	if sl, ok := l.(*simlocks.ShflLock); ok {
		wd.SetAux(func() string { return sl.Transitions().String() })
	}

	inCS := 0
	for i := 0; i < cfg.Workers; i++ {
		id := i
		e.Spawn(fmt.Sprintf("w%d", id), -1, func(t *sim.Thread) {
			defer wd.WorkerDone(t, id)
			t.Delay(uint64(t.Rng().Intn(50_000))) // scramble arrival order
			for k := 0; k < cfg.Iters; k++ {
				acquired := true
				if abortable {
					if budget := plan.AbortBudget(t); budget > 0 {
						acquired = al.LockAbort(t, budget)
						if !acquired {
							log.add(t.Now(), t.ID(), EvTimeout, 0)
							res.Timeouts++
						}
					} else {
						l.Lock(t)
					}
				} else {
					l.Lock(t)
				}
				if acquired {
					inCS++
					if inCS != 1 {
						res.MutualExclusionViolations++
					}
					if cfg.Deadlock && id == 0 && k == cfg.Iters/2 {
						// Hold the lock and never progress again. Delay (not
						// park) keeps the thread preemptible, so the other
						// workers and the watchdog still get CPU time.
						log.add(t.Now(), t.ID(), EvDeadlockStall, 0)
						for {
							t.Delay(1_000_000)
						}
					}
					if stall := plan.HolderStall(t); stall > 0 {
						t.Delay(stall)
					}
					for _, w := range data {
						t.Store(w, t.Load(w)+1)
					}
					t.Delay(uint64(250 + t.Rng().Intn(100)))
					inCS--
					l.Unlock(t)
					res.Ops++
				}
				wd.Beat(t, id)
				t.Delay(uint64(150 + t.Rng().Intn(100)))
			}
		})
	}
	e.Spawn("watchdog", -1, wd.Run)
	e.Run()

	res.Cycles = e.Now()
	if c := simlocks.StatsOf(l); c != nil {
		res.Counters = *c
	}
	res.WatchdogFired, res.WatchdogReason = wd.Fired()
	res.Report = wd.Report()

	res.FlipArmed = cfg.PolicyFlipFrac > 0
	res.PolicyFlips = log.Count(EvPolicyFlip)
	res.Expected = uint64(cfg.Workers) * uint64(cfg.Iters)
	if sl, ok := l.(*simlocks.ShflLock); ok {
		res.QueueResidue = sl.QueueResidue()
		res.Transitions = sl.Transitions().String()
	}
	return res, nil
}

// Summary renders the run's outcome as stable text (the chaos gate's
// golden output is this plus the log).
func (r *Result) Summary() string {
	c := r.Counters
	s := fmt.Sprintf("cycles=%d ops=%d timeouts=%d acquires=%d steals=%d shuffles=%d parks=%d aborts=%d reclaims=%d mutex-violations=%d\n",
		r.Cycles, r.Ops, r.Timeouts, c.Acquires, c.Steals, c.Shuffles, c.Parks, c.Aborts, c.Reclaims, r.MutualExclusionViolations)
	if r.WatchdogFired {
		s += fmt.Sprintf("watchdog fired: %s\n", r.WatchdogReason)
	} else {
		s += "watchdog quiet\n"
	}
	if r.FlipArmed {
		s += fmt.Sprintf("policy-flips=%d mid-shuffle=%d abort-reclaim=%d head-abdication=%d\n",
			r.PolicyFlips,
			r.Log.CountArg(EvPolicyFlip, uint64(sim.FlipMidShuffle)),
			r.Log.CountArg(EvPolicyFlip, uint64(sim.FlipAbortReclaim)),
			r.Log.CountArg(EvPolicyFlip, uint64(sim.FlipHeadAbdication)))
		acct := "ok"
		if !r.WatchdogFired && r.Ops+r.Timeouts != r.Expected {
			acct = fmt.Sprintf("LOST %d of %d acquisitions", r.Expected-r.Ops-r.Timeouts, r.Expected)
		}
		queue := r.QueueResidue
		if queue == "" {
			queue = "clean"
		}
		s += fmt.Sprintf("ops-accounting=%s queue=%s\n", acct, queue)
		s += "transition log:\n" + r.Transitions
	}
	return s
}
