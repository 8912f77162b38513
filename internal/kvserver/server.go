// Package kvserver is a sharded in-memory KV service: the paper's
// userspace story (one hot lock under heavy mixed traffic, Figure 12)
// turned into a real networked server. Keys hash onto shards; each shard
// is guarded by an embedded native lock behind the small ShardLock
// interface, every request acquires with a per-request deadline via
// LockContext (so overload degrades to fast 503s instead of queue
// collapse), and per-shard lockstat sites make lock behavior a live,
// queryable signal (/debug/lockstat). In adaptive mode a controller polls
// interval deltas of those sites and switches each shard between the
// RW-biased and plain-mutex members of the ShflLock family as its traffic
// shifts — see controller.go for the hysteresis and shard.go for the
// handover protocol.
//
// This is the networked sibling of internal/kvstore, which is a *simulated*
// LevelDB-shaped substrate for reproducing Figure 12 in the deterministic
// engine; the two share nothing but the paper.
package kvserver

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"shfllock/internal/core"
	"shfllock/internal/lockreg"
	"shfllock/internal/lockstat"
)

// Config parameterizes a Server.
type Config struct {
	Shards      int           // number of shards; 0 means 8
	Lock        string        // a NewLock impl or "adaptive"; "" means adaptive
	ReqTimeout  time.Duration // per-request deadline; 0 means 25ms
	PreloadKeys int           // fill k00000000..k<n-1> at startup
	ScanPace    time.Duration // default inter-entry scan pacing; 0 means 100µs
	MaxScan     int           // scan limit cap; 0 means 256
	MaxValBytes int64         // PUT body cap; 0 means 1MiB

	// Adaptive controller knobs (used when Lock == "adaptive").
	// The decision thresholds are constants in controller.go.
	CtlInterval time.Duration // poll interval; 0 means 100ms
	CtlMinOps   uint64        // minimum interval acquisition attempts to act on a shard; 0 means 50

	// CtlHome picks the controller's home lock family — the one a shard
	// returns to when abort pressure is gone ("shfl" or "sync"), and the
	// family adaptive shards start in. Empty means auto: "shfl" when the
	// runtime has real parallelism (shuffling buys NUMA batching and spin
	// efficiency), "sync" on a single-P runtime, where a userspace queue
	// lock cannot beat the runtime's futex-backed primitives and the
	// family machinery should only engage as the abort-storm escape hatch.
	CtlHome string

	// Registry receives the per-shard sites; nil means a private registry
	// (so servers in tests do not pollute lockstat.Default).
	Registry *lockstat.Registry
}

// Server is the KV service. Create with New, mount Handler on an
// http.Server, and Close when done.
type Server struct {
	cfg    Config
	reg    *lockstat.Registry
	shards []*shard
	start  time.Time

	ops        [4]atomic.Uint64 // indexed by loadgen-compatible op slots: get/put/delete/scan
	timeouts   atomic.Uint64
	violations atomic.Uint64

	ctl       *controller
	ctlCancel context.CancelFunc
	ctlDone   chan struct{}

	// /debug/lockstat interval state: the previous snapshot, so successive
	// hits report interval deltas (rates), not lifetime totals.
	dbgMu     sync.Mutex
	dbgPrev   []lockstat.Report
	dbgPrevAt time.Time
	dbgPrevOp opsSnapshot
}

type opsSnapshot struct {
	ops      [4]uint64
	timeouts uint64
}

const (
	opGet = iota
	opPut
	opDelete
	opScan
)

// New builds a server and, in adaptive mode, starts its controller.
func New(cfg Config) (*Server, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.Lock == "" {
		cfg.Lock = ImplAdaptive
	}
	if cfg.ReqTimeout <= 0 {
		cfg.ReqTimeout = 25 * time.Millisecond
	}
	if cfg.ScanPace == 0 {
		cfg.ScanPace = 100 * time.Microsecond
	}
	if cfg.MaxScan <= 0 {
		cfg.MaxScan = 256
	}
	if cfg.MaxValBytes <= 0 {
		cfg.MaxValBytes = 1 << 20
	}
	if cfg.CtlInterval <= 0 {
		cfg.CtlInterval = 100 * time.Millisecond
	}
	if cfg.CtlMinOps == 0 {
		cfg.CtlMinOps = 50
	}
	switch cfg.CtlHome {
	case "":
		if core.SingleP() {
			cfg.CtlHome = "sync"
		} else {
			cfg.CtlHome = "shfl"
		}
	case "shfl", "sync":
	default:
		return nil, fmt.Errorf("unknown controller home family %q (have \"shfl\", \"sync\")", cfg.CtlHome)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = lockstat.NewRegistry()
	}

	impl := cfg.Lock
	if impl == ImplAdaptive {
		// Adaptive shards start RW-biased in the home family.
		impl = ImplShflRW
		if cfg.CtlHome == "sync" {
			impl = ImplSyncRW
		}
	} else {
		ent, ok := lockreg.Find(impl)
		if !ok || !ent.HasNative() {
			return nil, fmt.Errorf("unknown lock mode %q (have %v and %q)", cfg.Lock, Impls, ImplAdaptive)
		}
		impl = ent.Name // aliases normalize to the canonical name
	}

	s := &Server{cfg: cfg, reg: reg, start: time.Now()}
	for i := 0; i < cfg.Shards; i++ {
		sh, err := newShard(impl, reg.Site(siteName(i)), &s.violations)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, sh)
	}
	for i := 0; i < cfg.PreloadKeys; i++ {
		key := fmt.Sprintf("k%08d", i)
		sh := s.shards[shardFor(key, cfg.Shards)]
		if err := sh.put(context.Background(), key, fmt.Sprintf("v%016x", uint64(i)*0x9e3779b97f4a7c15)); err != nil {
			return nil, err
		}
	}

	if cfg.Lock == ImplAdaptive {
		s.ctl = newController(s)
		ctx, cancel := context.WithCancel(context.Background())
		s.ctlCancel = cancel
		s.ctlDone = make(chan struct{})
		go func() {
			defer close(s.ctlDone)
			s.ctl.run(ctx)
		}()
	}
	return s, nil
}

// Close stops the adaptive controller (if any).
func (s *Server) Close() {
	if s.ctlCancel != nil {
		s.ctlCancel()
		<-s.ctlDone
	}
}

// Registry returns the lockstat registry backing the per-shard sites.
func (s *Server) Registry() *lockstat.Registry { return s.reg }

// Violations returns the mutual-exclusion violation count (must stay 0).
func (s *Server) Violations() uint64 { return s.violations.Load() }

// DebugShards returns each shard's current lock choice and switch count
// (a non-HTTP slice of the /debug/lockstat view, without the reports).
func (s *Server) DebugShards() []DebugShard {
	out := make([]DebugShard, len(s.shards))
	for i, sh := range s.shards {
		out[i] = DebugShard{Shard: i, Impl: sh.box.Load().impl, Switches: sh.switches.Load()}
	}
	return out
}

// shardOf returns the shard for a key.
func (s *Server) shardOf(key string) *shard { return s.shards[shardFor(key, len(s.shards))] }

// reqCtx derives the per-request deadline context.
func (s *Server) reqCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.ReqTimeout)
}

// Get looks up a key (direct, non-HTTP entry point; the handler and tests
// share it).
func (s *Server) Get(ctx context.Context, key string) (string, bool, error) {
	v, ok, err := s.shardOf(key).get(ctx, key)
	s.account(opGet, err)
	return v, ok, err
}

// Put stores a value.
func (s *Server) Put(ctx context.Context, key, val string) error {
	err := s.shardOf(key).put(ctx, key, val)
	s.account(opPut, err)
	return err
}

// Delete removes a key (idempotent).
func (s *Server) Delete(ctx context.Context, key string) error {
	err := s.shardOf(key).delete(ctx, key)
	s.account(opDelete, err)
	return err
}

// Scan streams up to limit entries in key order from start, within start's
// shard, pacing entries by pace (use the server default when negative).
func (s *Server) Scan(ctx context.Context, start string, limit int, pace time.Duration,
	emit func(k, v string) bool) (int, error) {
	if limit <= 0 || limit > s.cfg.MaxScan {
		limit = s.cfg.MaxScan
	}
	if pace < 0 {
		pace = s.cfg.ScanPace
	}
	n, err := s.shardOf(start).scan(ctx, start, limit, pace, emit)
	s.account(opScan, err)
	return n, err
}

func (s *Server) account(op int, err error) {
	if err != nil {
		s.timeouts.Add(1)
		return
	}
	s.ops[op].Add(1)
}

// Handler returns the HTTP surface:
//
//	GET    /kv/{key}        200 value | 404 | 503
//	PUT    /kv/{key}        204 | 503        (body = value)
//	DELETE /kv/{key}        204 | 503        (idempotent)
//	GET    /scan?start=K&limit=N[&pace_us=P]  text/plain "key\tvalue" lines
//	GET    /debug/lockstat  JSON interval report (?lifetime=1 for totals)
//	GET    /healthz         200 ok
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /kv/{key}", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := s.reqCtx(r)
		defer cancel()
		v, ok, err := s.Get(ctx, r.PathValue("key"))
		switch {
		case err != nil:
			overloaded(w)
		case !ok:
			http.Error(w, "not found", http.StatusNotFound)
		default:
			io.WriteString(w, v)
		}
	})
	mux.HandleFunc("PUT /kv/{key}", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := s.reqCtx(r)
		defer cancel()
		body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxValBytes))
		if err != nil {
			http.Error(w, "bad body", http.StatusBadRequest)
			return
		}
		if err := s.Put(ctx, r.PathValue("key"), string(body)); err != nil {
			overloaded(w)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("DELETE /kv/{key}", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := s.reqCtx(r)
		defer cancel()
		if err := s.Delete(ctx, r.PathValue("key")); err != nil {
			overloaded(w)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /scan", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := s.reqCtx(r)
		defer cancel()
		q := r.URL.Query()
		limit := 0
		fmt.Sscanf(q.Get("limit"), "%d", &limit)
		pace := time.Duration(-1)
		if p := q.Get("pace_us"); p != "" {
			us := 0
			fmt.Sscanf(p, "%d", &us)
			pace = time.Duration(us) * time.Microsecond
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		flusher, _ := w.(http.Flusher)
		_, err := s.Scan(ctx, q.Get("start"), limit, pace, func(k, v string) bool {
			if _, werr := fmt.Fprintf(w, "%s\t%s\n", k, v); werr != nil {
				return false
			}
			if flusher != nil {
				flusher.Flush() // stream: the consumer sees entries as they go
			}
			return true
		})
		if err != nil {
			// Nothing streamed yet (the error can only come from acquire).
			overloaded(w)
		}
	})
	mux.HandleFunc("GET /debug/lockstat", func(w http.ResponseWriter, r *http.Request) {
		s.writeDebugLockstat(w, r.URL.Query().Get("lifetime") != "")
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return mux
}

func overloaded(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	http.Error(w, "shard lock deadline exceeded", http.StatusServiceUnavailable)
}

// DebugShard is one shard's slice of the /debug/lockstat response.
type DebugShard struct {
	Shard     int     `json:"shard"`
	Impl      string  `json:"impl"`
	Switches  uint64  `json:"switches"`
	AcqPerSec float64 `json:"acquires_per_sec"`
	ReadFrac  float64 `json:"read_frac"`
	Contended float64 `json:"contended_frac"`
	WaitP99Us float64 `json:"wait_p99_us"`
	// Transitions is the tail of the shard lock's policy-transition log,
	// oldest first.
	Transitions []string        `json:"transitions,omitempty"`
	Report      lockstat.Report `json:"report"`
}

// DebugLockstat is the /debug/lockstat response schema. By default every
// field describes the interval since the previous /debug/lockstat request
// (rates, not lifetime totals — the lockstat Diff API); ?lifetime=1 reports
// since process start.
type DebugLockstat struct {
	UptimeS    float64           `json:"uptime_s"`
	IntervalS  float64           `json:"interval_s"`
	Lifetime   bool              `json:"lifetime"`
	Mode       string            `json:"mode"`
	Ops        map[string]uint64 `json:"ops"`
	Timeouts   uint64            `json:"timeouts"`
	Violations uint64            `json:"violations"`
	Shards     []DebugShard      `json:"shards"`
}

func (s *Server) writeDebugLockstat(w http.ResponseWriter, lifetime bool) {
	s.dbgMu.Lock()
	now := time.Now()
	cur := make([]lockstat.Report, len(s.shards))
	for i, sh := range s.shards {
		cur[i] = sh.site.Report()
	}
	var curOp opsSnapshot
	for i := range curOp.ops {
		curOp.ops[i] = s.ops[i].Load()
	}
	curOp.timeouts = s.timeouts.Load()

	reports := cur
	op := curOp
	interval := now.Sub(s.start)
	if !lifetime {
		if s.dbgPrev != nil {
			reports = lockstat.DiffAll(s.dbgPrev, cur)
			for i := range op.ops {
				op.ops[i] = curOp.ops[i] - s.dbgPrevOp.ops[i]
			}
			op.timeouts = curOp.timeouts - s.dbgPrevOp.timeouts
			interval = now.Sub(s.dbgPrevAt)
		}
		s.dbgPrev = cur
		s.dbgPrevAt = now
		s.dbgPrevOp = curOp
	}
	s.dbgMu.Unlock()

	resp := DebugLockstat{
		UptimeS:    now.Sub(s.start).Seconds(),
		IntervalS:  interval.Seconds(),
		Lifetime:   lifetime,
		Mode:       s.cfg.Lock,
		Timeouts:   op.timeouts,
		Violations: s.violations.Load(),
		Ops: map[string]uint64{
			"get": op.ops[opGet], "put": op.ops[opPut],
			"delete": op.ops[opDelete], "scan": op.ops[opScan],
		},
	}
	secs := interval.Seconds()
	if secs <= 0 {
		secs = 1
	}
	for i, sh := range s.shards {
		rep := reports[i]
		b := sh.box.Load()
		d := DebugShard{
			Shard:    i,
			Impl:     b.impl,
			Switches: sh.switches.Load(),
			Report:   rep,
		}
		if tl := b.lk.Transitions(); tl != nil {
			for _, tr := range tl.Tail(8) {
				d.Transitions = append(d.Transitions,
					fmt.Sprintf("epoch=%d at=%d %s -> %s (%s)", tr.Epoch, tr.At, tr.From, tr.To, tr.Trigger))
			}
		}
		if rep.Acquires > 0 {
			d.AcqPerSec = float64(rep.Acquires) / secs
			d.ReadFrac = float64(rep.ReadAcquires) / float64(rep.Acquires)
			d.Contended = float64(rep.Contended) / float64(rep.Acquires)
		}
		if rep.Wait != nil {
			d.WaitP99Us = rep.Wait.Percentile(0.99) / 1e3
		}
		resp.Shards = append(resp.Shards, d)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}
