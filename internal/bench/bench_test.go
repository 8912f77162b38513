package bench

import (
	"bytes"
	"strings"
	"testing"

	"shfllock/internal/stats"
	"shfllock/internal/topology"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the evaluation must be registered.
	want := []string{
		"fig1a", "fig1b", "fig2", "table1",
		"fig8a", "fig8b",
		"fig9a", "fig9b", "fig9c",
		"fig10a", "fig10b", "fig10c",
		"fig11a", "fig11b", "fig11c", "fig11d", "fig11e", "fig11f", "fig11g", "fig11h",
		"fig12a", "fig12b", "fig12c",
		"fig13a", "fig13b",
		"shootout-a", "shootout-b",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, ok := ByID("fig99"); ok {
		t.Error("unknown experiment found")
	}
}

// tinyConfig runs experiments on a small machine so smoke tests are fast.
func tinyConfig() Config {
	return Config{Topo: topology.Machine{Sockets: 2, CoresPerSocket: 4}, Seed: 1, Quick: true}
}

// TestExperimentsSmoke runs the cheap experiments end to end on a tiny
// machine and checks they produce tabular output.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are slow")
	}
	for _, id := range []string{"fig2", "fig8b", "fig11e", "fig11f", "fig13b"} {
		e, _ := ByID(id)
		var buf bytes.Buffer
		e.Run(tinyConfig(), &buf)
		out := buf.String()
		if len(out) < 50 {
			t.Errorf("%s: suspiciously short output:\n%s", id, out)
		}
		if id != "fig2" && !strings.Contains(out, "machine:") {
			t.Errorf("%s: missing banner", id)
		}
	}
}

func TestThreadPoints(t *testing.T) {
	c := Config{Topo: topology.Reference(), Quick: true}.withDefaults()
	pts := c.threadPoints(4)
	if pts[0] != 1 {
		t.Errorf("sweep must start at 1 thread: %v", pts)
	}
	last := pts[len(pts)-1]
	if last != 4*192 {
		t.Errorf("4x oversubscription point = %d, want 768", last)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i] <= pts[i-1] {
			t.Errorf("sweep not increasing: %v", pts)
		}
	}
}

// Every topology must sweep its exact full-subscription point: a
// 2-socket/10-core machine has 20 cores, which no canned ladder contains.
func TestThreadPointsFullSubscription(t *testing.T) {
	cases := []struct {
		topo    topology.Machine
		quick   bool
		oversub int
	}{
		{topology.Machine{Sockets: 2, CoresPerSocket: 10}, true, 1},
		{topology.Machine{Sockets: 2, CoresPerSocket: 10}, false, 4},
		{topology.Machine{Sockets: 1, CoresPerSocket: 2}, true, 4},
		{topology.Reference(), true, 4},
		{topology.Reference(), false, 1},
	}
	for _, tc := range cases {
		c := Config{Topo: tc.topo, Quick: tc.quick}
		pts := c.threadPoints(tc.oversub)
		cores := tc.topo.Cores()
		found := false
		for _, p := range pts {
			if p == cores {
				found = true
			}
		}
		if !found {
			t.Errorf("%v quick=%v: full-subscription point %d missing from %v", tc.topo, tc.quick, cores, pts)
		}
		for i := 1; i < len(pts); i++ {
			if pts[i] <= pts[i-1] {
				t.Errorf("%v: sweep not sorted/deduped: %v", tc.topo, pts)
			}
		}
		if want := tc.oversub * cores; tc.oversub > 1 && pts[len(pts)-1] != want {
			t.Errorf("%v: oversubscription endpoint = %d, want %d", tc.topo, pts[len(pts)-1], want)
		}
	}
	// The reference-machine ladders are unchanged by the fix: 192 is both
	// a ladder value and the core count, and must appear exactly once.
	pts := Config{Topo: topology.Reference(), Quick: true}.threadPoints(1)
	n := 0
	for _, p := range pts {
		if p == 192 {
			n++
		}
	}
	if n != 1 {
		t.Errorf("192 appears %d times in the reference quick sweep %v, want once", n, pts)
	}
}

// Seed 0 must stay seed 0: -seed 0 and -seed 1 are different runs. The
// default seed is applied by cmd/shflbench's flag definition, not by
// remapping the value here.
func TestSeedZeroPreserved(t *testing.T) {
	c := Config{Seed: 0}.withDefaults()
	if c.Seed != 0 {
		t.Fatalf("withDefaults remapped Seed 0 to %d", c.Seed)
	}
	if got := c.params(4).Seed; got != 0 {
		t.Fatalf("params forwarded seed %d, want 0", got)
	}
}

func TestMeasureAtomicsUncontendedShfl(t *testing.T) {
	// Table 1 claims ShflLock needs ~1 atomic per uncontended acquire.
	c := tinyConfig()
	a := measureAtomics(c, mkMaker("shfllock-nb"), 1, 100)
	if a < 0.9 || a > 1.5 {
		t.Errorf("uncontended shfllock atomics/acquire = %.2f, want ~1", a)
	}
	// And the cohort lock needs several (Table 1 says 4).
	a2 := measureAtomics(c, mkMaker("cohort"), 1, 100)
	if a2 < 2 {
		t.Errorf("uncontended cohort atomics/acquire = %.2f, want >=2", a2)
	}
}

// The shape gate must record failures: a ratio under the threshold, a
// missing series, and a zero baseline all mark the log failed; a passing
// ratio does not. A nil log (shflbench without the gate) is a no-op.
func TestShapeLogGate(t *testing.T) {
	series := []stats.Series{
		{Label: "fast", X: []int{1, 192}, Y: []float64{1, 100}},
		{Label: "slow", X: []int{1, 192}, Y: []float64{1, 50}},
		{Label: "dead", X: []int{1, 192}, Y: []float64{0, 0}},
	}
	var buf bytes.Buffer
	log := &ShapeLog{}
	c := Config{Shapes: log}

	shapeCheck(&buf, c, series, "fast", "slow", 1.5) // 2.00x >= 1.5x
	if log.Failed() {
		t.Fatalf("passing check marked log failed: %v", log.Failures())
	}
	if !strings.Contains(buf.String(), "shape[ok]: fast / slow at 192 threads = 2.00x") {
		t.Errorf("unexpected verdict line: %q", buf.String())
	}

	shapeCheck(&buf, c, series, "slow", "fast", 1.0) // 0.50x < 1.0x
	shapeCheck(&buf, c, series, "fast", "gone", 1.0) // missing series
	shapeCheck(&buf, c, series, "fast", "dead", 1.0) // zero baseline
	shapeExpect(&buf, c, "claim the experiment disproved", false)
	if !log.Failed() {
		t.Fatal("failing checks did not mark the log failed")
	}
	if got := len(log.Failures()); got != 4 {
		t.Errorf("Failures() = %d entries (%v), want 4", got, log.Failures())
	}
	if !strings.Contains(buf.String(), "shape[FAIL]: slow / fast at 192 threads = 0.50x") {
		t.Errorf("missing FAIL verdict: %q", buf.String())
	}
	if got := len(log.Checks); got != 5 {
		t.Errorf("Checks = %d entries, want 5", got)
	}

	// Experiments run without a gate pass a nil log; every path must cope.
	nilCfg := Config{}
	shapeCheck(&buf, nilCfg, series, "fast", "slow", 1.5)
	shapeExpect(&buf, nilCfg, "no log attached", true)
	var nilLog *ShapeLog
	if nilLog.Failed() || nilLog.Failures() != nil {
		t.Error("nil ShapeLog must report no failures")
	}
}
