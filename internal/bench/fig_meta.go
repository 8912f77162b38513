package bench

import (
	"fmt"
	"io"

	"shfllock/internal/sim"
	"shfllock/internal/simlocks"
	"shfllock/internal/workloads"
)

// linuxLockCalls is the historical dataset behind Figure 2: the number of
// lock() API call sites in the Linux kernel source by release year, as
// published in the paper's motivation. cmd/lockcount reproduces the method
// on any source tree.
var linuxLockCalls = []struct {
	Year      int
	Version   string
	CallSites int
}{
	{2002, "2.5.0", 21000},
	{2004, "2.6.0", 29000},
	{2006, "2.6.16", 38000},
	{2008, "2.6.24", 47000},
	{2010, "2.6.32", 57000},
	{2012, "3.2", 67000},
	{2014, "3.14", 78000},
	{2016, "4.4", 92000},
	{2018, "4.19", 110000},
}

// measureAtomics runs a short single-lock stress and returns atomic RMWs
// per acquire, using the memory model's per-tag accounting.
func measureAtomics(c Config, mk simlocks.Maker, threads, ops int) float64 {
	e := sim.NewEngine(sim.Config{Topo: c.Topo, Seed: c.Seed, HardStop: 3_000_000_000_000, NoFastPath: c.NoFastPath})
	l := mk.New(e, "t1")
	for i := 0; i < threads; i++ {
		e.Spawn("w", -1, func(t *sim.Thread) {
			t.Delay(uint64(t.Rng().Intn(20_000)))
			for k := 0; k < ops; k++ {
				l.Lock(t)
				t.Delay(uint64(300 + t.Rng().Intn(200)))
				l.Unlock(t)
				t.Delay(uint64(t.Rng().Intn(200)))
			}
		})
	}
	e.Run()
	st := e.Mem().StatsPrefix("t1")
	acq := simlocks.StatsOf(l)
	e.Recycle()
	if acq == nil || acq.Acquires == 0 {
		return 0
	}
	return float64(st.Atomics) / float64(acq.Acquires)
}

// Table1Row is one lock's entry in Table 1: its static footprint plus the
// measured atomic operations per acquisition (zero for the RW-lock rows,
// which the table reports footprint-only).
type Table1Row struct {
	Name          string  `json:"name"`
	PerLock       int     `json:"per_lock_bytes"`
	PerWaiter     int     `json:"per_waiter_bytes"`
	PerHolder     int     `json:"per_holder_bytes,omitempty"`
	Dynamic       bool    `json:"dynamic,omitempty"`
	HeapNodes     bool    `json:"heap_nodes,omitempty"`
	AtomicsSolo   float64 `json:"atomics_per_acquire_1t,omitempty"`
	AtomicsContnd float64 `json:"atomics_per_acquire_contended,omitempty"`
}

// Table1Result is the full Table 1 dataset in machine-readable form
// (cmd/memfootprint -json).
type Table1Result struct {
	Mutexes []Table1Row `json:"mutexes"`
	RWLocks []Table1Row `json:"rw_locks"`
}

// Variant labels of Table 1's two atomics measurements per mutex. The
// thread counts alone cannot key them: on a small quick-mode machine the
// contended run can collapse to 1 thread and collide with the solo run.
const (
	t1Solo      = "atomics-solo"
	t1Contended = "atomics-contended"
)

// atomicsKey is the Extra field carrying a measureAtomics value through
// the point/result plumbing (and the on-disk cache).
const atomicsKey = "atomics_per_acquire"

// table1Setup derives the measurement sizes from the config.
func table1Setup(c Config) (ops, contended int) {
	ops = 400
	contended = c.Topo.Cores() / 2
	if c.Quick {
		ops = 120
		contended = c.Topo.Cores() / 4
	}
	return ops, contended
}

// Table 1's rows, in the paper's order: the mutexes measured for atomics
// per acquire and the RW locks reported footprint-only. Variants (heap
// nodes, ablation stages) are left out; cmd/memfootprint -lock measures
// any simulated lock.
var (
	table1Mutexes = []string{"tas", "ticket", "mcs", "stock-qspinlock", "cna", "cohort", "hmcs", "cst", "malthusian",
		"mcstp", "pthread", "mutexee", "stock-mutex", "shfllock-nb", "shfllock-b", "fissile", "hapax", "reciprocating"}
	table1RWLocks = []string{"stock-rwsem", "cohort-rw", "cst-rw", "shfllock-rw", "stock-rwsem+bravo", "shfllock-rw+bravo"}
)

// Table1Lineup resolves Table 1's rows through the registry.
func Table1Lineup() ([]simlocks.Maker, []simlocks.RWMaker) {
	mutexes := make([]simlocks.Maker, len(table1Mutexes))
	for i, name := range table1Mutexes {
		mutexes[i] = mkMaker(name)
	}
	rwLocks := make([]simlocks.RWMaker, len(table1RWLocks))
	for i, name := range table1RWLocks {
		rwLocks[i] = rwMaker(name)
	}
	return mutexes, rwLocks
}

// table1Points enumerates Table 1's simulations: solo and contended
// atomics-per-acquire for every mutex (RW locks are footprint-only).
func table1Points(c Config, mutexes []simlocks.Maker) []Point {
	ops, contended := table1Setup(c)
	var out []Point
	for _, mk := range mutexes {
		out = append(out,
			Point{Lock: mk.Name, Threads: 1, Variant: t1Solo, Run: func(c Config) workloads.Result {
				return workloads.Result{Extra: map[string]float64{atomicsKey: measureAtomics(c, mk, 1, ops)}}
			}},
			Point{Lock: mk.Name, Threads: contended, Variant: t1Contended, Run: func(c Config) workloads.Result {
				return workloads.Result{Extra: map[string]float64{atomicsKey: measureAtomics(c, mk, contended, ops/8+4)}}
			}})
	}
	return out
}

// table1Assemble combines the static footprints with the measured atomics.
func table1Assemble(c Config, r *Results, mutexes []simlocks.Maker, rwLocks []simlocks.RWMaker) Table1Result {
	_, contended := table1Setup(c)
	sockets := c.Topo.Sockets
	var out Table1Result
	for _, mk := range mutexes {
		fp := mk.Footprint(sockets)
		out.Mutexes = append(out.Mutexes, Table1Row{
			Name:          mk.Name,
			PerLock:       fp.PerLock,
			PerWaiter:     fp.PerWaiter,
			PerHolder:     fp.PerHolder,
			Dynamic:       fp.Dynamic,
			HeapNodes:     fp.HeapNodes,
			AtomicsSolo:   r.GetV(mk.Name, 1, t1Solo).Extra[atomicsKey],
			AtomicsContnd: r.GetV(mk.Name, contended, t1Contended).Extra[atomicsKey],
		})
	}
	for _, mk := range rwLocks {
		fp := mk.Footprint(sockets)
		out.RWLocks = append(out.RWLocks, Table1Row{
			Name:      mk.Name,
			PerLock:   fp.PerLock,
			PerWaiter: fp.PerWaiter,
		})
	}
	return out
}

// Table1Data measures Table 1 for the given lineup — per-lock/per-waiter/
// per-holder footprints and atomics per acquire for each mutex, footprints
// for each RW lock — running the measurements serially (cmd/memfootprint's
// entry point).
func Table1Data(c Config, mutexes []simlocks.Maker, rwLocks []simlocks.RWMaker) Table1Result {
	c = c.withDefaults()
	r := &Results{m: map[resKey]workloads.Result{}}
	for _, p := range table1Points(c, mutexes) {
		r.m[resKey{p.Lock, p.Threads, p.Variant}] = p.Run(c)
	}
	return table1Assemble(c, r, mutexes, rwLocks)
}

func init() {
	register("fig2", "Figure 2: lock() call sites in the Linux kernel over time",
		nil, // static dataset: nothing to simulate
		func(c Config, r *Results, w io.Writer) {
			header(w, c, "Figure 2 — growth of lock usage in Linux (published dataset)")
			fmt.Fprintf(w, "%-6s %-10s %12s\n", "year", "version", "call sites")
			for _, row := range linuxLockCalls {
				fmt.Fprintf(w, "%-6d %-10s %12d\n", row.Year, row.Version, row.CallSites)
			}
			fmt.Fprintln(w, "\n(use cmd/lockcount to reproduce the count on any source tree)")
		})

	register("table1", "Table 1: memory footprint and atomics per acquire for every lock",
		func(c Config) []Point {
			mutexes, _ := Table1Lineup()
			return table1Points(c, mutexes)
		},
		func(c Config, r *Results, w io.Writer) {
			header(w, c, "Table 1 — footprint (bytes) and atomic ops per acquire")
			mutexes, rwLocks := Table1Lineup()
			WriteTable1(w, table1Assemble(c, r, mutexes, rwLocks))
		})
}

// WriteTable1 renders the Table 1 dataset as text — shared by the
// registered experiment and cmd/memfootprint.
func WriteTable1(w io.Writer, data Table1Result) {
	fmt.Fprintf(w, "%-18s %9s %10s %10s %9s %12s %12s\n",
		"lock", "per-lock", "per-waiter", "per-holder", "dynamic", "atomics(1t)", "atomics(cont)")
	for _, row := range data.Mutexes {
		dyn := ""
		if row.Dynamic {
			dyn = "yes"
		}
		if row.HeapNodes {
			dyn += " heap"
		}
		fmt.Fprintf(w, "%-18s %9d %10d %10d %9s %12.2f %12.2f\n",
			row.Name, row.PerLock, row.PerWaiter, row.PerHolder, dyn, row.AtomicsSolo, row.AtomicsContnd)
	}
	fmt.Fprintln(w, "\nRW lock footprints:")
	fmt.Fprintf(w, "%-18s %9s %10s\n", "lock", "per-lock", "per-waiter")
	for _, row := range data.RWLocks {
		fmt.Fprintf(w, "%-18s %9d %10d\n", row.Name, row.PerLock, row.PerWaiter)
	}
}
