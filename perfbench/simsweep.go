package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"shfllock/internal/bench"
	"shfllock/internal/sim"
	"shfllock/internal/topology"
	"shfllock/internal/workloads"
)

// sweepIDs are the quick-mode experiments of the sim-sweep workload: spin
// handoff (fig8a/b), simulated park/wake (fig11c, fig11f), RW locks
// (fig11g, fig12b's blocking locks) and an application model (fig10b).
// fig9c alone takes longer than all of these together, so it stays out.
var sweepIDs = []string{"fig8a", "fig8b", "fig10b", "fig11c", "fig11f", "fig11g", "fig12b"}

// goldenPath is the committed quick sweep at seed 1; each experiment's
// output must equal its section there.
const goldenPath = "results_quick.txt"

// pointRec is one simulation point as the benchmark saw it.
type pointRec struct {
	dur time.Duration
	eng sim.PathStats
}

// sweep is one prepared run of the experiment set.
type sweep struct {
	cfg  bench.Config
	exps []bench.Experiment
}

func prepareSweep(seed int64) (*sweep, error) {
	s := &sweep{cfg: bench.Config{
		Topo:  topology.Machine{Sockets: 8, CoresPerSocket: 24},
		Seed:  seed,
		Quick: true,
	}}
	for _, id := range sweepIDs {
		ex, ok := bench.ByID(id)
		if !ok {
			return nil, fmt.Errorf("sim-sweep: experiment %s missing", id)
		}
		if len(ex.Points(s.cfg)) == 0 {
			return nil, fmt.Errorf("sim-sweep: experiment %s has no points", id)
		}
		s.exps = append(s.exps, ex)
	}
	return s, nil
}

// run executes the sweep with procs points in flight, timing every
// Point.Run from outside. With a tracer, each point is a span under one
// sweep span.
func (s *sweep) run(procs int, tr *tracer) (out []byte, recs []pointRec, shapes *bench.ShapeLog, wall time.Duration, err error) {
	var mu sync.Mutex
	var root int64
	if tr != nil {
		root = tr.id()
	}
	wrapped := make([]bench.Experiment, len(s.exps))
	for i, ex := range s.exps {
		ex := ex
		wrapped[i] = ex
		wrapped[i].Points = func(c bench.Config) []bench.Point {
			pts := ex.Points(c)
			for j := range pts {
				p := pts[j]
				pts[j].Run = func(c bench.Config) workloads.Result {
					t0 := time.Now()
					res := p.Run(c)
					t1 := time.Now()
					mu.Lock()
					recs = append(recs, pointRec{dur: t1.Sub(t0), eng: res.Engine})
					mu.Unlock()
					if tr != nil {
						tr.addShared(tr.id(), root, 0, fmt.Sprintf("%s/%s@%d%s", ex.ID, p.Lock, p.Threads, p.Variant), "bench", t0, t1)
					}
					return res
				}
			}
			return pts
		}
	}
	cfg := s.cfg
	shapes = &bench.ShapeLog{}
	cfg.Shapes = shapes
	var buf bytes.Buffer
	t0 := time.Now()
	err = bench.RunAll(wrapped, cfg, bench.Options{Parallel: procs, Banner: true}, &buf)
	wall = time.Since(t0)
	if tr != nil {
		tr.addShared(root, 0, 0, "sweep", "perfbench", t0, t0.Add(wall))
	}
	return buf.Bytes(), recs, shapes, wall, err
}

// sections splits banner-separated sweep output into experiment sections.
func sections(out string) map[string]string {
	m := map[string]string{}
	var id string
	var cur strings.Builder
	flush := func() {
		if id != "" {
			m[id] = cur.String()
		}
		cur.Reset()
	}
	for _, line := range strings.SplitAfter(out, "\n") {
		if strings.HasPrefix(line, "=== ") {
			flush()
			id, _, _ = strings.Cut(strings.TrimPrefix(line, "=== "), ":")
		}
		cur.WriteString(line)
	}
	flush()
	return m
}

// simPass is one measured pass: a fixed number of whole sweeps, checked
// against the reference output.
type simPass struct {
	outs  [][]byte
	recs  []pointRec
	walls []float64
	alloc runtimeDelta
}

// secondsPerSweep sets a pass's sweep count: one per this many seconds of
// --seconds, at least one. The count is fixed rather than timed, so every
// run does the same work (one quick sweep takes 7-9s on a 2-CPU Xeon).
const secondsPerSweep = 10

func (e *env) simPass(s *sweep, seconds float64, tr *tracer) (*simPass, error) {
	p := &simPass{}
	before := takeRuntimeSnap()
	for n := max(1, int(seconds/secondsPerSweep+0.5)); len(p.walls) < n; {
		out, recs, shapes, wall, err := s.run(e.procs, tr)
		if err != nil {
			return nil, fmt.Errorf("sim-sweep: %w", err)
		}
		if e.seed == 1 {
			e.check(!shapes.Failed(), "sim-sweep: shape checks failed at seed 1: %v", shapes.Failures())
		}
		p.outs = append(p.outs, out)
		p.recs = append(p.recs, recs...)
		p.walls = append(p.walls, wall.Seconds())
		say("sweep %d: %.3f s, %d points", len(p.walls), wall.Seconds(), len(recs))
	}
	p.alloc = diffRuntime(before, takeRuntimeSnap())
	return p, nil
}

// verify checks every sweep's output: equal to the committed golden at
// seed 1, and byte-identical to the first sweep at every seed.
func (e *env) verifySweeps(ref []byte, golden map[string]string, outs ...[]byte) {
	want := sections(string(ref))
	for _, out := range outs {
		e.attempted += int64(len(sweepIDs))
		got := sections(string(out))
		bad := 0
		for _, id := range sweepIDs {
			ok := got[id] == want[id]
			e.check(ok, "sim-sweep: %s output differs between sweeps of seed %d", id, e.seed)
			if golden != nil {
				g := golden[id] == got[id]
				e.check(g, "sim-sweep: %s output differs from %s", id, goldenPath)
				ok = ok && g
			}
			if !ok {
				bad++
			}
		}
		e.failed += int64(bad)
	}
}

func (p *simPass) result() passResult {
	var durs samples
	for _, r := range p.recs {
		durs = append(durs, int64(r.dur))
	}
	d := durs.sorted()
	points := float64(len(p.recs)) / float64(len(p.walls))
	return passResult{
		opsPerS: points / median(p.walls),
		p50:     d.quantile(0.50) / 1e3,
		p99:     d.quantile(0.99) / 1e3,
	}
}

func runSimSweep(e *env) error {
	var golden map[string]string
	if e.seed == 1 {
		b, err := os.ReadFile(goldenPath)
		if err != nil {
			return fmt.Errorf("sim-sweep: golden: %w", err)
		}
		golden = sections(string(b))
	}
	// Set-up resolves the experiments and enumerates their points: the
	// work before the first simulation starts.
	var s *sweep
	setup := func() error {
		var err error
		s, err = prepareSweep(e.seed)
		return err
	}
	setupU, err := timeSetup(setupReps, nil, setup)
	if err != nil {
		return err
	}
	secs := e.seconds
	if e.traced {
		secs /= 2
	}
	u, err := e.simPass(s, secs, nil)
	if err != nil {
		return err
	}
	ur := u.result()
	say("sweep_s %.4f s (median of %d sweeps)", median(u.walls), len(u.walls))
	say("points %d per sweep", len(u.recs)/len(u.walls))
	if !e.traced {
		e.verifySweeps(u.outs[0], golden, u.outs...)
		e.report(setupU, ur)
		return nil
	}

	memU := peakRSSMB()
	tr := newTracer()
	setupT, err := timeSetup(setupReps, nil, setup)
	if err != nil {
		return err
	}
	// The profile covers the traced pass only, not the set-ups before it.
	prof, err := startProfile()
	if err != nil {
		return err
	}
	t, err := e.simPass(s, secs, tr)
	if err != nil {
		return err
	}
	layer := map[string]float64{}
	if err := prof.stop(layer); err != nil {
		return err
	}
	// Traced and untraced sweeps must be byte-identical at every seed.
	e.verifySweeps(u.outs[0], golden, append(u.outs, t.outs...)...)

	var durs samples
	var agg sim.PathStats
	var busy time.Duration
	for _, r := range t.recs {
		durs = append(durs, int64(r.dur))
		agg.Add(r.eng)
		busy += r.dur
	}
	d := durs.sorted()
	transfers := float64(agg.FastResumes + agg.FastHandoffs + agg.EngineTrips)
	layer["bench.point_s_p50"] = d.quantile(0.5) / 1e9
	layer["bench.point_s_max"] = float64(d[len(d)-1]) / 1e9
	layer["sim.transfers"] = transfers / float64(len(t.walls))
	layer["sim.fast_share"] = agg.FastShare() / 100
	if transfers > 0 {
		layer["sim.ns_per_transfer"] = float64(busy) / transfers
	}
	layer["go.alloc_mb"] = t.alloc.allocMB / float64(len(t.walls))
	layer["go.alloc_bytes_per_op"] = t.alloc.allocBytes / float64(len(t.recs))
	layer["go.sched_p99_us"] = t.alloc.schedP99Us
	layer["cpu_util"] = t.alloc.cpuUtil
	if err := e.writeTrace(tr, layer); err != nil {
		return err
	}
	tres := t.result()
	tres.layer = layer
	e.reportTraced(setupU, setupT, memU, ur, tres)
	return nil
}
