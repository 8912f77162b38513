package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself is not instrumented). Parent links a span to the
// span that caused it; spans of one request share req.
type span struct {
	id, parent, req int64
	name, layer     string
	start, end      int64 // ns since the tracer's epoch
	tid             int   // display lane: worker or goroutine index
}

// tracer keeps spans in memory and writes them out once, at the end of the
// traced pass. Hot loops record into a private lane (no lock); spans from
// goroutines the benchmark does not own (HTTP handlers) go through the
// shared lane under a mutex.
type tracer struct {
	epoch   time.Time
	nextID  atomic.Int64
	budget  atomic.Int64 // spans still allowed; bounds memory and file size
	dropped atomic.Int64

	mu     sync.Mutex
	lanes  []*lane
	shared *lane
}

type lane struct {
	t     *tracer
	tid   int
	spans []span
}

// maxSpans caps the spans kept per traced pass (~100 bytes each).
const maxSpans = 200_000

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.budget.Store(maxSpans)
	t.shared = t.lane(-1)
	return t
}

// lane returns a recorder private to one goroutine.
func (t *tracer) lane(tid int) *lane {
	l := &lane{t: t, tid: tid}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// id reserves a span id, so children recorded before their parent ends can
// name it.
func (t *tracer) id() int64 { return t.nextID.Add(1) }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// add records a finished span on this lane.
func (l *lane) add(id, parent, req int64, name, layer string, start, end time.Time) {
	if l.t.budget.Add(-1) < 0 {
		l.t.dropped.Add(1)
		return
	}
	l.spans = append(l.spans, span{id: id, parent: parent, req: req, name: name, layer: layer,
		start: l.t.ns(start), end: l.t.ns(end), tid: l.tid})
}

// addShared records a span from a goroutine without a lane of its own.
func (t *tracer) addShared(id, parent, req int64, name, layer string, start, end time.Time) {
	t.mu.Lock()
	t.shared.add(id, parent, req, name, layer, start, end)
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.lanes {
		out = append(out, l.spans...)
	}
	return out
}

// selfByLayer sums, per layer, each span's duration minus the part of its
// interval that its children cover.
func selfByLayer(spans []span) map[string]float64 {
	kids := map[int64][]int{}
	for i, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		dur := s.end - s.start
		ch := kids[s.id]
		if len(ch) > 0 {
			iv := make([][2]int64, 0, len(ch))
			for _, c := range ch {
				a, b := max(spans[c].start, s.start), min(spans[c].end, s.end)
				if b > a {
					iv = append(iv, [2]int64{a, b})
				}
			}
			sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
			var covered, curA, curB int64
			for i, v := range iv {
				if i == 0 || v[0] > curB {
					covered += curB - curA
					curA, curB = v[0], v[1]
				} else if v[1] > curB {
					curB = v[1]
				}
			}
			covered += curB - curA
			dur -= covered
		}
		out[s.layer] += float64(dur) / 1e9
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events), loadable in chrome://tracing and Perfetto.
func writeChrome(path string, spans []span, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ns","otherData":`)
	mb, err := json.Marshal(meta)
	if err != nil {
		f.Close()
		return fmt.Errorf("trace metadata: %w", err)
	}
	w.Write(mb)
	fmt.Fprint(w, `,"traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		b, err := json.Marshal(event{Name: s.name, Cat: s.layer, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: s.tid,
			Args: map[string]any{"id": s.id, "parent": s.parent, "req": s.req}})
		if err != nil {
			f.Close()
			return fmt.Errorf("trace event: %w", err)
		}
		w.Write(b)
		w.WriteByte('\n')
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace write: %w", err)
	}
	return f.Close()
}
