package bench

import (
	"fmt"
	"io"

	"shfllock/internal/lockreg"
	"shfllock/internal/simlocks"
	"shfllock/internal/stats"
	"shfllock/internal/workloads"
)

// rwSet is the blocking readers-writer lock lineup of Figures 1 and 9(b,c).
func rwSet() []string {
	return []string{"stock-rwsem", "cst-rw", "cohort-rw", "shfllock-rw"}
}

// rwMaker and mkMaker resolve a lineup name through the registry; a name
// that is not a simulated lock of that shape is a bug in the lineup.
func rwMaker(name string) simlocks.RWMaker {
	ent, _ := lockreg.Find(name)
	m, ok := ent.SimRWMaker()
	if !ok {
		panic("unknown rw lock " + name)
	}
	return m
}

func mkMaker(name string) simlocks.Maker {
	ent, _ := lockreg.Find(name)
	m, ok := ent.SimMaker()
	if !ok {
		panic("unknown lock " + name)
	}
	return m
}

func init() {
	register("fig1a", "Figure 1(a): MWCM file creation throughput (writer side of inode rwsem)",
		func(c Config) []Point {
			return sweepPoints(c, rwSet(), c.threadPoints(1), func(c Config, name string, n int) workloads.Result {
				return workloads.MWCM(c.params(n), rwMaker(name))
			})
		},
		func(c Config, r *Results, w io.Writer) {
			header(w, c, "Figure 1(a) — MWCM throughput, shared directory, 4KB files")
			s := seriesOf(r, rwSet(), c.threadPoints(1), opsPerSec)
			fmt.Fprint(w, stats.Table("threads", "files/sec", s))
			shapeCheck(w, c, s, "shfllock-rw", "cohort-rw", 1.0)
			shapeCheck(w, c, s, "shfllock-rw", "stock-rwsem", 2.0)
		})

	register("fig1b", "Figure 1(b): lock memory consumed by inodes during MWCM",
		func(c Config) []Point {
			return sweepPoints(c, rwSet(), c.threadPoints(1), func(c Config, name string, n int) workloads.Result {
				return workloads.MWCM(c.params(n), rwMaker(name))
			})
		},
		func(c Config, r *Results, w io.Writer) {
			header(w, c, "Figure 1(b) — lock bytes embedded in live inodes (MB)")
			s := seriesOf(r, rwSet(), c.threadPoints(1), func(res workloads.Result) float64 {
				return float64(res.LockBytes) / (1 << 20)
			})
			fmt.Fprint(w, stats.Table("threads", "lock MB", s))
			shapeCheck(w, c, s, "cohort-rw", "shfllock-rw", 10)
		})

	fig9aNames := []string{"stock-mutex", "cohort", "cst", "shfllock-b"}
	register("fig9a", "Figure 9(a): MWRM rename into a shared directory (sb rename mutex)",
		func(c Config) []Point {
			return sweepPoints(c, fig9aNames, c.threadPoints(2), func(c Config, name string, n int) workloads.Result {
				return workloads.MWRM(c.params(n), mkMaker(name))
			})
		},
		func(c Config, r *Results, w io.Writer) {
			header(w, c, "Figure 9(a) — MWRM throughput with blocking locks, up to 2x over-subscription")
			s := seriesOf(r, fig9aNames, c.threadPoints(2), opsPerSec)
			fmt.Fprint(w, stats.Table("threads", "renames/sec", s))
			shapeCheck(w, c, s, "shfllock-b", "stock-mutex", 0.9)
			shapeCheck(w, c, s, "shfllock-b", "cohort", 1.5)
		})

	register("fig9b", "Figure 9(b): MWCM with blocking locks, up to 2x over-subscription",
		func(c Config) []Point {
			return sweepPoints(c, rwSet(), c.threadPoints(2), func(c Config, name string, n int) workloads.Result {
				return workloads.MWCM(c.params(n), rwMaker(name))
			})
		},
		func(c Config, r *Results, w io.Writer) {
			header(w, c, "Figure 9(b) — MWCM throughput (writer side), blocking locks")
			s := seriesOf(r, rwSet(), c.threadPoints(2), opsPerSec)
			fmt.Fprint(w, stats.Table("threads", "files/sec", s))
			shapeCheck(w, c, s, "shfllock-rw", "cohort-rw", 1.2)
		})

	fig9cNames := append(rwSet(), "stock-rwsem+bravo", "shfllock-rw+bravo")
	register("fig9c", "Figure 9(c): MRDM directory enumeration (reader side) incl. BRAVO",
		func(c Config) []Point {
			return sweepPoints(c, fig9cNames, c.threadPoints(2), func(c Config, name string, n int) workloads.Result {
				return workloads.MRDM(c.params(n), rwMaker(name))
			})
		},
		func(c Config, r *Results, w io.Writer) {
			header(w, c, "Figure 9(c) — MRDM throughput (reader side), blocking locks + BRAVO")
			s := seriesOf(r, fig9cNames, c.threadPoints(2), opsPerSec)
			fmt.Fprint(w, stats.Table("threads", "readdirs/sec", s))
			shapeCheck(w, c, s, "shfllock-rw", "stock-rwsem", 0.7)
			shapeCheck(w, c, s, "cohort-rw", "shfllock-rw", 5)
			shapeCheck(w, c, s, "shfllock-rw+bravo", "stock-rwsem+bravo", 0.7)
		})
}
