package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// samples is a set of durations in nanoseconds whose percentiles are exact:
// the benchmark keeps every sample it takes (sampling rates are chosen so a
// run holds at most a few million), because bucketed histograms would make a
// percentile read the same bucket bound on every run.
type samples []int64

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile returns the q-quantile of sorted samples by linear interpolation
// between closest ranks; 0 when there are none.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(s[lo])*(1-frac) + float64(s[hi])*frac
}

func fmtList(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(parts, " ")
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// hostSteal returns the host's steal and total CPU ticks from /proc/stat
// (zeros when unavailable).
func hostSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] { // guest time is already in user time
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSnap is the slice of runtime/metrics a pass diffs: bytes allocated
// and the scheduler-latency histogram (time goroutines spent runnable before
// running).
type runtimeSnap struct {
	allocBytes uint64
	sched      *metrics.Float64Histogram
	cpu        time.Duration
	wall       time.Time
}

func takeRuntimeSnap() runtimeSnap {
	ms := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/sched/latencies:seconds"}}
	metrics.Read(ms)
	s := runtimeSnap{cpu: cpuTime(), wall: time.Now()}
	if ms[0].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64Histogram {
		h := ms[1].Value.Float64Histogram()
		s.sched = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	}
	return s
}

// runtimeDelta is what the Go runtime did between two snapshots.
type runtimeDelta struct {
	allocMB    float64
	allocBytes float64
	schedP99Us float64
	cpuUtil    float64 // process CPU time / (wall time x GOMAXPROCS)
}

func diffRuntime(a, b runtimeSnap) runtimeDelta {
	d := runtimeDelta{
		allocBytes: float64(b.allocBytes - a.allocBytes),
	}
	d.allocMB = d.allocBytes / (1 << 20)
	if wall := b.wall.Sub(a.wall); wall > 0 {
		d.cpuUtil = float64(b.cpu-a.cpu) / (float64(wall) * float64(runtime.GOMAXPROCS(0)))
	}
	if a.sched != nil && b.sched != nil && len(a.sched.Counts) == len(b.sched.Counts) {
		var total uint64
		counts := make([]uint64, len(b.sched.Counts))
		for i := range counts {
			counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
			total += counts[i]
		}
		if total > 0 {
			want := 0.99 * float64(total)
			var cum float64
			for i, c := range counts {
				if c == 0 || cum+float64(c) < want {
					cum += float64(c)
					continue
				}
				// Bucket i spans Buckets[i]..Buckets[i+1]: interpolate
				// within it, so the figure is not pinned to a bucket edge.
				lo, hi := b.sched.Buckets[i], b.sched.Buckets[i+1]
				if math.IsInf(lo, -1) {
					lo = 0
				}
				if math.IsInf(hi, 1) {
					hi = lo
				}
				d.schedP99Us = (lo + (hi-lo)*(want-cum)/float64(c)) * 1e6
				break
			}
		}
	}
	return d
}
