package lockreg

import (
	"testing"

	"shfllock/internal/chaos"
	"shfllock/internal/sim"
	"shfllock/internal/topology"
)

// conformanceScript is the deterministic op sequence both substrates run:
// 'L' Lock, 'U' Unlock, 'T' TryLock. Built so TryLock is exercised both on
// a free lock (must succeed) and while held (must fail), repeatedly enough
// to cycle every node/cell through reuse paths.
func conformanceScript() string {
	var ops []byte
	for i := 0; i < 48; i++ {
		switch i % 3 {
		case 0:
			ops = append(ops, 'L', 'T', 'U') // try while held
		case 1:
			ops = append(ops, 'T', 'T', 'U') // try-acquire, then try while held
		case 2:
			ops = append(ops, 'L', 'U', 'T', 'U') // try right after release
		}
	}
	return string(ops)
}

// mutexOps is the substrate-neutral surface the script drives.
type mutexOps struct {
	lock   func()
	unlock func()
	try    func() bool
}

// runScript executes the script and returns the decision trace: one byte
// per TryLock ('t' success, 'f' failure) and '.' per completed Lock/Unlock
// pair boundary — the observable decisions an algorithm makes.
func runScript(t *testing.T, name, script string, m mutexOps) string {
	t.Helper()
	var trace []byte
	held := false
	for i := 0; i < len(script); i++ {
		switch script[i] {
		case 'L':
			m.lock()
			held = true
			trace = append(trace, '.')
		case 'T':
			ok := m.try()
			if ok == held {
				t.Fatalf("%s: op %d: TryLock=%v while held=%v", name, i, ok, held)
			}
			if ok {
				held = true
				trace = append(trace, 't')
			} else {
				trace = append(trace, 'f')
			}
		case 'U':
			if !held {
				t.Fatalf("bad script: unlock while free at op %d", i)
			}
			m.unlock()
			held = false
		}
	}
	return string(trace)
}

// TestSubstrateConformance runs the same deterministic op script against
// the native and the simulator implementation of every dual-substrate
// mutex and requires byte-identical decision traces — and requires the sim
// trace to be identical across two fresh engines, pinning determinism.
func TestSubstrateConformance(t *testing.T) {
	script := conformanceScript()
	for _, e := range DualSubstrate() {
		if e.simRW != nil {
			continue // the RW dual is covered by TestSubstrateConformanceRW
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			h, err := e.NewNative()
			if err != nil {
				t.Fatal(err)
			}
			native := runScript(t, e.Name+"/native", script, mutexOps{h.Lock, h.Unlock, h.TryLock})

			simTrace := func() string {
				eng := sim.NewEngine(sim.Config{Topo: topology.Laptop(), Seed: 1, HardStop: 1_000_000_000})
				l, err := e.NewSim(eng, "conf/"+e.Name)
				if err != nil {
					t.Fatal(err)
				}
				var out string
				eng.Spawn("w0", -1, func(th *sim.Thread) {
					out = runScript(t, e.Name+"/sim", script, mutexOps{
						func() { l.Lock(th) },
						func() { l.Unlock(th) },
						func() bool { return l.TryLock(th) },
					})
				})
				eng.Run()
				return out
			}
			s1, s2 := simTrace(), simTrace()
			if s1 != s2 {
				t.Fatalf("sim trace not deterministic:\n  %s\n  %s", s1, s2)
			}
			if native != s1 {
				t.Fatalf("substrates diverge on the same script:\n  native: %s\n  sim:    %s", native, s1)
			}
		})
	}
}

// TestSubstrateConformanceRW drives the dual readers-writer entries
// through a fixed read/write script on both substrates; single-threaded,
// the observable contract is that every acquisition completes and the
// native try paths agree with the hold state.
func TestSubstrateConformanceRW(t *testing.T) {
	for _, e := range DualSubstrate() {
		if e.simRW == nil {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			h, err := e.NewNativeRW()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 32; i++ {
				h.Lock()
				if h.TryLock() || h.TryRLock() {
					t.Fatal("try succeeded against a held write lock")
				}
				h.Unlock()
				h.RLock()
				h.RUnlock()
			}

			mk, ok := e.SimRWMaker()
			if !ok {
				t.Fatalf("no sim RW maker for %s", e.Name)
			}
			eng := sim.NewEngine(sim.Config{Topo: topology.Laptop(), Seed: 1, HardStop: 1_000_000_000})
			l := mk.New(eng, "conf/"+e.Name)
			done := false
			eng.Spawn("w0", -1, func(th *sim.Thread) {
				for i := 0; i < 32; i++ {
					l.Lock(th)
					l.Unlock(th)
					l.RLock(th)
					l.RUnlock(th)
				}
				done = true
			})
			eng.Run()
			if !done {
				t.Fatal("sim RW script did not complete")
			}
		})
	}
}

// TestChaosDualSubstrate extends the seeded chaos torture to every
// dual-substrate mutex: each survives the full fault schedule (abort
// injection only where the algorithm supports it) with zero
// mutual-exclusion violations and a quiet watchdog, and two runs of the
// same seed produce byte-identical fault logs — the determinism contract
// new algorithms must join, not just the ShflLocks.
func TestChaosDualSubstrate(t *testing.T) {
	for _, e := range DualSubstrate() {
		if e.simRW != nil {
			continue // chaos tortures mutex-shaped locks
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			run := func() *chaos.Result {
				cfg := chaos.Defaults(11)
				cfg.Lock, _ = e.SimMaker()
				if !e.Has(CapAbortable) {
					cfg.AbortFrac = 0
				}
				r, err := chaos.Run(cfg)
				if err != nil {
					t.Fatalf("chaos.Run(%s): %v", e.simName(), err)
				}
				return r
			}
			a, b := run(), run()
			if a.MutualExclusionViolations != 0 {
				t.Fatalf("%s: %d mutual-exclusion violations under chaos", e.Name, a.MutualExclusionViolations)
			}
			if a.WatchdogFired {
				t.Fatalf("%s: watchdog fired without an injected deadlock: %s", e.Name, a.WatchdogReason)
			}
			if a.Log.String() != b.Log.String() || a.Summary() != b.Summary() {
				t.Fatalf("%s: chaos run not byte-identical across invocations", e.Name)
			}
			if e.Has(CapAbortable) && a.Timeouts == 0 {
				t.Errorf("%s: abort injection armed but no acquisition ever timed out", e.Name)
			}
		})
	}
}
