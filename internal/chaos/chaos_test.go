package chaos

import (
	"strings"
	"testing"

	"shfllock/internal/simlocks"
)

// TestRunReproducible: the whole point of the layer — same seed, same
// faults, same outcome, byte for byte. This is the property the verify.sh
// chaos gate enforces end to end through cmd/locktorture.
func TestRunReproducible(t *testing.T) {
	for _, mk := range []simlocks.Maker{simlocks.ShflLockBMaker(), simlocks.ShflLockNBMaker()} {
		t.Run(mk.Name, func(t *testing.T) {
			cfg := Defaults(42)
			cfg.Lock = mk
			a, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.Log.String() != b.Log.String() {
				t.Fatalf("fault logs differ between identical runs:\n--- a\n%s--- b\n%s", a.Log.String(), b.Log.String())
			}
			if a.Summary() != b.Summary() {
				t.Fatalf("summaries differ:\n%s\n%s", a.Summary(), b.Summary())
			}
			if a.MutualExclusionViolations != 0 {
				t.Fatalf("mutual exclusion violated %d times under chaos", a.MutualExclusionViolations)
			}
			if a.WatchdogFired {
				t.Fatalf("watchdog fired without a deadlock: %s\n%s", a.WatchdogReason, a.Report)
			}
			if a.Timeouts == 0 {
				t.Fatalf("chaos run injected no timeouts; abandonment untested (log:\n%s)", a.Log.String())
			}
			if a.Counters.Aborts != a.Timeouts {
				t.Fatalf("lock counted %d aborts, harness saw %d timeouts", a.Counters.Aborts, a.Timeouts)
			}
			if a.Counters.Reclaims == 0 {
				t.Fatalf("timeouts occurred but no abandoned node was ever reclaimed")
			}
		})
	}
}

// TestSeedsDiverge: different seeds must produce different fault schedules
// (otherwise the seed isn't actually feeding the plan).
func TestSeedsDiverge(t *testing.T) {
	a, err := Run(Defaults(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Defaults(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Log.String() == b.Log.String() {
		t.Fatal("seeds 1 and 2 produced identical fault logs")
	}
}

// TestFaultFreeRunsClean: with every fault class disarmed the run is just
// the torture loop — every iteration completes, nothing is logged, and
// the watchdog stays quiet.
func TestFaultFreeRunsClean(t *testing.T) {
	cfg := Defaults(9)
	cfg.AbortFrac = 0
	cfg.ShufflerPreemptFrac = 0
	cfg.SpuriousWakeFrac = 0
	cfg.HolderStallFrac = 0
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Log.Events) != 0 {
		t.Fatalf("disarmed run logged %d events:\n%s", len(r.Log.Events), r.Log.String())
	}
	if r.WatchdogFired {
		t.Fatalf("watchdog fired on a fault-free run: %s", r.WatchdogReason)
	}
	if want := uint64(cfg.Workers * cfg.Iters); r.Ops != want {
		t.Fatalf("ops = %d, want %d", r.Ops, want)
	}
	if r.MutualExclusionViolations != 0 {
		t.Fatalf("mutual exclusion violated %d times", r.MutualExclusionViolations)
	}
}

// TestWatchdogCatchesDeadlock: an injected permanent holder stall must
// fire the watchdog (instead of hanging the run) and the post-mortem must
// carry the frozen scheduler state.
func TestWatchdogCatchesDeadlock(t *testing.T) {
	cfg := Defaults(5)
	cfg.Deadlock = true
	cfg.WatchdogInterval = 1_000_000
	cfg.WatchdogThreshold = 20_000_000
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.WatchdogFired {
		t.Fatal("deadlock injected but watchdog never fired")
	}
	// The blamed worker is whichever starved longest — often one blocked
	// behind the stalled holder, not the holder itself.
	if !strings.Contains(r.WatchdogReason, "made no progress") {
		t.Fatalf("unexpected watchdog reason: %s", r.WatchdogReason)
	}
	if !strings.Contains(r.Report, "thread") || !strings.Contains(r.Report, "fault log tail") {
		t.Fatalf("post-mortem is missing the scheduler dump or log tail:\n%s", r.Report)
	}
	if r.Log.Count(EvDeadlockStall) != 1 || r.Log.Count(EvWatchdog) != 1 {
		t.Fatalf("expected exactly one stall and one watchdog event, log:\n%s", r.Log.String())
	}
	// The fire itself must also replay deterministically.
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Log.String() != r2.Log.String() || r.Cycles != r2.Cycles {
		t.Fatal("deadlock run is not reproducible")
	}
}

// TestLimboReuse: a thread whose abortable acquisition timed out must be
// able to acquire again (its node is reclaimed and reused), repeatedly.
func TestLimboReuse(t *testing.T) {
	cfg := Defaults(21)
	cfg.AbortFrac = 0.6 // hammer the abandonment path
	cfg.AbortBudgetMin = 10_000
	cfg.AbortBudgetMax = 60_000
	cfg.Iters = 60
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.MutualExclusionViolations != 0 {
		t.Fatalf("mutual exclusion violated %d times", r.MutualExclusionViolations)
	}
	if r.WatchdogFired {
		t.Fatalf("watchdog fired: %s\n%s", r.WatchdogReason, r.Report)
	}
	if r.Timeouts == 0 {
		t.Fatal("aggressive abort config produced no timeouts")
	}
	// Every worker finished all iterations: ops + timeouts covers them.
	if got := r.Ops + r.Timeouts; got != uint64(cfg.Workers*cfg.Iters) {
		t.Fatalf("ops+timeouts = %d, want %d (a worker lost an iteration)", got, cfg.Workers*cfg.Iters)
	}
}
