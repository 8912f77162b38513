package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"shfllock/internal/kvserver"
	"shfllock/internal/lockstat"
)

const (
	kvSetupReps = 15
	kvShards    = 8
	kvPreload   = 100_000
	kvZipfS     = 1.1
	// kvOpenRate is the open-loop phase's fixed absolute offered load, about
	// 25% of the closed-loop capacity measured on a 2-CPU Xeon host (about
	// 20k requests/s). At 40% the client and server, sharing two CPUs,
	// fell into queueing episodes (window medians of tens of ms, client
	// sheds) that measured host noise more than the service. It is a
	// constant so a faster or slower program is offered the same traffic.
	kvOpenRate = 5000.0
	// kvShedAfter: an op a worker dequeues this late is shed by the client
	// instead of sent; it counts as failed.
	kvShedAfter = 100 * time.Millisecond
	// kvQueue bounds ops dispatched but not yet sent; the dispatcher sheds
	// beyond it. Sized to one second of offered load.
	kvQueue = int(kvOpenRate)
)

// kvStream is a seeded op stream: zipf(1.1) keys over the preloaded key
// space, 90% GET and 10% PUT, no scans (the server paces scans, and a scan
// would block one of the few connections behind it).
type kvStream struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	id   int
	seq  int
}

type kvOp struct {
	put bool
	key int
	val string
}

func newKVStream(seed int64, id int) *kvStream {
	rng := rand.New(rand.NewSource(seed*7_368_787 + int64(id)))
	return &kvStream{rng: rng, zipf: rand.NewZipf(rng, kvZipfS, 1, kvPreload-1), id: id}
}

func (s *kvStream) next() kvOp {
	op := kvOp{key: int(s.zipf.Uint64()), put: s.rng.Intn(10) == 0}
	if op.put {
		s.seq++
		op.val = fmt.Sprintf("w%d.%d.%d", s.id, s.seq, s.rng.Int63())
	}
	return op
}

func kvKey(k int) string { return fmt.Sprintf("k%08d", k) }

// kvHandler wraps the server's handler; while a tracer is set, every
// request gets a kvserver span whose parent is the client's span.
type kvHandler struct {
	inner http.Handler
	tr    atomic.Pointer[tracer]
}

func (h *kvHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.inner.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.inner.ServeHTTP(w, r)
	t1 := time.Now()
	req, _ := strconv.ParseInt(r.Header.Get("X-Req-Id"), 10, 64)
	tr.addShared(tr.id(), req, req, "Handler", "kvserver", t0, t1)
}

// splitRequests joins each request's client span with its handler span by
// request id and returns the sorted handler times and the sorted
// client-minus-handler (transport) times.
func splitRequests(spans []span) (hand, transport samples) {
	client := map[int64]int64{}
	for _, s := range spans {
		if s.layer == "http" {
			client[s.req] = s.end - s.start
		}
	}
	for _, s := range spans {
		if cns, ok := client[s.req]; ok && s.layer == "kvserver" {
			hand = append(hand, s.end-s.start)
			transport = append(transport, cns-(s.end-s.start))
		}
	}
	return hand.sorted(), transport.sorted()
}

// kvSystem is the service under test: server, loopback HTTP listener and a
// client limited to procs keep-alive connections.
type kvSystem struct {
	srv    *kvserver.Server
	h      *kvHandler
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

func startKV(procs int) (*kvSystem, error) {
	srv, err := kvserver.New(kvserver.Config{Shards: kvShards, Lock: kvserver.ImplAdaptive, PreloadKeys: kvPreload})
	if err != nil {
		return nil, fmt.Errorf("kv-http: server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("kv-http: listen: %w", err)
	}
	s := &kvSystem{srv: srv, h: &kvHandler{inner: srv.Handler()},
		served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	s.hs = &http.Server{Handler: s.h}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs, MaxIdleConns: procs,
		DisableCompression: true, IdleConnTimeout: time.Minute,
	}}
	for i := 0; i < procs; i++ {
		if err := s.get("/healthz", nil); err != nil {
			s.close()
			return nil, fmt.Errorf("kv-http: warm-up: %w", err)
		}
	}
	return s, nil
}

func (s *kvSystem) close() {
	s.hs.Close()
	<-s.served
	s.client.CloseIdleConnections()
	s.srv.Close()
}

func (s *kvSystem) get(path string, into any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if into != nil {
		return json.Unmarshal(b, into)
	}
	return nil
}

var errShed = errors.New("503 from server")

// do sends one op. It returns the GET value, errShed on a 503, or another
// error for anything the service must never do.
func (s *kvSystem) do(op kvOp, req int64) (string, error) {
	url := s.base + "/kv/" + kvKey(op.key)
	var hr *http.Request
	var err error
	if op.put {
		hr, err = http.NewRequest(http.MethodPut, url, strings.NewReader(op.val))
	} else {
		hr, err = http.NewRequest(http.MethodGet, url, nil)
	}
	if err != nil {
		return "", err
	}
	if req != 0 {
		hr.Header.Set("X-Req-Id", strconv.FormatInt(req, 10))
	}
	resp, err := s.client.Do(hr)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		return "", errShed
	case op.put && resp.StatusCode == http.StatusNoContent:
		return "", nil
	case !op.put && resp.StatusCode == http.StatusOK:
		return string(b), nil
	}
	return "", fmt.Errorf("%s %s: %s", hr.Method, url, resp.Status)
}

// putRec is one PUT as the client saw it, for the read-back check.
type putRec struct {
	key        int
	val        string
	send, done int64 // ns since the pass epoch
	ok         bool
}

// kvClient is one connection's worth of client state.
type kvClient struct {
	ok, shed, errs int64
	puts           []putRec
	firstErr       error
	lane           *lane
}

func (c *kvClient) note(err error) {
	switch {
	case err == nil:
		c.ok++
	case errors.Is(err, errShed):
		c.shed++
	default:
		c.errs++
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
}

// send times one op as a span when traced, and records PUTs.
func (s *kvSystem) send(c *kvClient, op kvOp, tr *tracer, epoch time.Time) error {
	var req int64
	if tr != nil {
		req = tr.id()
	}
	t0 := time.Now()
	_, err := s.do(op, req)
	t1 := time.Now()
	if tr != nil {
		name := "client GET"
		if op.put {
			name = "client PUT"
		}
		c.lane.add(req, 0, req, name, "http", t0, t1)
	}
	if op.put {
		c.puts = append(c.puts, putRec{key: op.key, val: op.val, send: int64(t0.Sub(epoch)), done: int64(t1.Sub(epoch)), ok: err == nil})
	}
	c.note(err)
	return err
}

// kvPass is one closed-loop phase followed by one open-loop phase. Each
// phase is split into windows; the pass reports medians over them.
type kvPass struct {
	clients   []*kvClient
	closedOps []float64        // ok ops per second, closed loop, per window
	lat       [windows]samples // open loop, ns from scheduled send, ok ops, by window of the send
	late      samples          // open loop, dispatch ns after scheduled send
	shedQ     int64            // open loop, shed by the dispatcher's full queue
	attempted int64
}

func (s *kvSystem) pass(procs int, seed int64, closed, open time.Duration, tr *tracer, epoch time.Time) *kvPass {
	p := &kvPass{}
	newClient := func(i int) *kvClient {
		c := &kvClient{}
		if tr != nil {
			c.lane = tr.lane(i)
		}
		p.clients = append(p.clients, c)
		return c
	}

	// Closed loop: procs connections, each sending its next op as soon as
	// the previous one completes.
	var stop atomic.Bool
	var win atomic.Int32
	var wg sync.WaitGroup
	okBy := make([][windows]atomic.Int64, procs)
	for i := 0; i < procs; i++ {
		c := newClient(i)
		wg.Add(1)
		go func(i int, c *kvClient) {
			defer wg.Done()
			st := newKVStream(seed, i)
			for !stop.Load() {
				w := win.Load()
				if s.send(c, st.next(), tr, epoch) == nil {
					okBy[i][w].Add(1)
				}
			}
		}(i, c)
	}
	t0 := time.Now()
	var prev time.Duration
	for k := 1; k <= windows; k++ {
		time.Sleep(time.Until(t0.Add(closed * time.Duration(k) / windows)))
		if k < windows {
			win.Store(int32(k))
		} else {
			stop.Store(true)
		}
		el := time.Since(t0)
		var n int64
		for i := range okBy {
			n += okBy[i][k-1].Load() // a client may still be finishing an op of window k-1
		}
		p.closedOps = append(p.closedOps, float64(n)/(el-prev).Seconds())
		prev = el
	}
	wg.Wait()
	for _, c := range p.clients {
		p.attempted += c.ok + c.shed + c.errs
	}

	// Open loop: one pacer schedules ops at kvOpenRate and procs
	// connections send them; latency runs from the scheduled send time.
	type job struct {
		op  kvOp
		due time.Time
		win int
	}
	n := int(kvOpenRate * open.Seconds())
	q := make(chan job, kvQueue)
	lat := make([][windows]samples, procs)
	for i := 0; i < procs; i++ {
		for k := range lat[i] {
			lat[i][k] = touched(n/windows + 1)
		}
		c := newClient(procs + i)
		wg.Add(1)
		go func(i int, c *kvClient) {
			defer wg.Done()
			for j := range q {
				if time.Since(j.due) > kvShedAfter {
					c.shed++
					continue
				}
				if s.send(c, j.op, tr, epoch) == nil {
					lat[i][j.win] = append(lat[i][j.win], int64(time.Since(j.due)))
				}
			}
		}(i, c)
	}
	p.late = touched(n)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(q)
		pinPacer()
		st := newKVStream(seed, 1_000+procs)
		start := time.Now().Add(time.Millisecond)
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(float64(i) * float64(time.Second) / kvOpenRate))
			pace(due)
			p.late = append(p.late, int64(time.Since(due)))
			select {
			case q <- job{st.next(), due, i * windows / n}:
			default:
				p.shedQ++
			}
		}
	}()
	wg.Wait()
	p.attempted += int64(n)
	for k := range p.lat {
		for i := range lat {
			p.lat[k] = append(p.lat[k], lat[i][k]...)
		}
		slices.Sort(p.lat[k])
	}
	slices.Sort(p.late)
	return p
}

// pace waits until due without a runtime timer: Go's timers overshoot
// sub-millisecond sleeps by about a millisecond when the processor would go
// idle, which would send ops in bursts. The pacer's goroutine owns its OS
// thread, asks the kernel for 1µs timer slack on it, and sleeps in
// nanosleep, so it neither bursts nor burns a processor spinning.
func pace(due time.Time) {
	for {
		d := time.Until(due)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-reads the clock
	}
}

// pinPacer binds the calling goroutine to its OS thread for good (the
// thread exits with the goroutine, taking its timer slack with it) and
// sets that thread's timer slack to 1µs.
func pinPacer() {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0) // best effort: default slack only adds ~50µs
}

func (p *kvPass) failures() (shed, errs int64, first error) {
	shed = p.shedQ
	for _, c := range p.clients {
		shed += c.shed
		errs += c.errs
		if first == nil {
			first = c.firstErr
		}
	}
	return
}

func (p *kvPass) result() passResult {
	var p50s, p99s []float64
	for _, l := range p.lat {
		p50s = append(p50s, l.quantile(0.5)/1e3)
		p99s = append(p99s, l.quantile(0.99)/1e3)
	}
	return passResult{opsPerS: median(p.closedOps), p50: median(p50s), p99: median(p99s)}
}

// verifyKV checks what the service must guarantee: no mutual-exclusion
// violation, no error but a 503, and, for a seeded sample of the keys the
// run wrote, a read-back equal to a PUT no later PUT could have replaced.
func (e *env) verifyKV(s *kvSystem, p *kvPass) {
	shed, errs, first := p.failures()
	e.attempted += p.attempted
	e.failed += shed + errs
	e.check(errs == 0, "kv-http: %d requests failed with errors other than 503 (first: %v)", errs, first)
	e.check(s.srv.Violations() == 0, "kv-http: %d mutual-exclusion violations", s.srv.Violations())

	// A key's final value must come from a successful PUT that completed
	// no earlier than the last PUT to the key was sent. Keys with a failed
	// PUT are skipped: whether it applied is unknown.
	type hist struct {
		puts  []putRec
		maybe bool
	}
	keys := map[int]*hist{}
	for _, c := range p.clients {
		for _, r := range c.puts {
			h := keys[r.key]
			if h == nil {
				h = &hist{}
				keys[r.key] = h
			}
			h.puts = append(h.puts, r)
			h.maybe = h.maybe || !r.ok
		}
	}
	var written []int
	for k, h := range keys {
		if !h.maybe {
			written = append(written, k)
		}
	}
	sort.Ints(written)
	rand.New(rand.NewSource(e.seed)).Shuffle(len(written), func(i, j int) { written[i], written[j] = written[j], written[i] })
	if len(written) > 1000 {
		written = written[:1000]
	}
	bad := 0
	for _, k := range written {
		h := keys[k]
		var lastSend int64
		for _, r := range h.puts {
			lastSend = max(lastSend, r.send)
		}
		got, err := s.do(kvOp{key: k}, 0)
		e.attempted++
		if err != nil {
			e.failed++
			e.check(false, "kv-http: read-back of %s: %v", kvKey(k), err)
			continue
		}
		ok := false
		for _, r := range h.puts {
			if r.done >= lastSend && r.val == got {
				ok = true
			}
		}
		if !ok {
			bad++
		}
	}
	e.check(bad == 0, "kv-http: %d of %d read-back keys hold a value no surviving PUT wrote", bad, len(written))
	if len(written) == 0 {
		e.check(false, "kv-http: no key was written, so nothing was read back")
	}
	say("read-back: %d keys checked, %d wrong", len(written), bad)
}

func runKV(e *env) error {
	secs := e.seconds
	if e.traced {
		secs /= 2
	}
	closed := time.Duration(0.4 * secs * float64(time.Second))
	open := time.Duration(0.6 * secs * float64(time.Second))

	// Set-up builds the server with its preloaded keys, starts the HTTP
	// listener and warms every client connection. Closing the previous
	// set-up's system is untimed.
	var sys *kvSystem
	prep := func() error {
		if sys != nil {
			sys.close()
		}
		return nil
	}
	setup := func() error {
		var err error
		sys, err = startKV(e.procs)
		return err
	}
	setupU, err := timeSetup(kvSetupReps, prep, setup)
	if err != nil {
		return err
	}
	defer func() { sys.close() }()
	epoch := time.Now()
	u := sys.pass(e.procs, e.seed, closed, open, nil, epoch)
	ur := e.reportKVPass("untraced", u)
	e.verifyKV(sys, u)
	if !e.traced {
		e.report(setupU, ur)
		return nil
	}

	memU := peakRSSMB()
	tr := newTracer()
	setupT, err := timeSetup(kvSetupReps, prep, setup)
	if err != nil {
		return err
	}
	// The profile covers the traced pass only, not the set-ups before it.
	prof, err := startProfile()
	if err != nil {
		return err
	}
	epoch = time.Now()
	var before kvDebug
	if err := sys.get("/debug/lockstat?lifetime=1", &before); err != nil {
		return fmt.Errorf("kv-http: debug: %w", err)
	}
	repsBefore := sys.srv.Registry().Reports()
	sys.h.tr.Store(tr)
	snap := takeRuntimeSnap()
	t := sys.pass(e.procs, e.seed, closed, open, tr, epoch)
	rt := diffRuntime(snap, takeRuntimeSnap())
	sys.h.tr.Store(nil)
	layer := map[string]float64{}
	if err := prof.stop(layer); err != nil {
		return err
	}
	tres := e.reportKVPass("traced", t)
	tres.layer = layer

	var after kvDebug
	if err := sys.get("/debug/lockstat?lifetime=1", &after); err != nil {
		return fmt.Errorf("kv-http: debug: %w", err)
	}
	layer["kvserver.timeouts"] = float64(after.Timeouts - before.Timeouts)
	kvLockLayers(layer, lockstat.DiffAll(repsBefore, sys.srv.Registry().Reports()))
	var switches uint64
	for _, d := range sys.srv.DebugShards() {
		switches += d.Switches
	}
	layer["kvserver.lock_switches"] = float64(switches)

	// Handler time from the server-side spans; transport is the client's
	// time for the same request minus the handler's.
	hand, transport := splitRequests(tr.all())
	layer["kvserver.handler_us_p50"] = hand.quantile(0.5) / 1e3
	layer["kvserver.handler_us_p99"] = hand.quantile(0.99) / 1e3
	layer["http.transport_us_p50"] = transport.quantile(0.5) / 1e3
	layer["loadgen.late_p99_ms"] = t.late.quantile(0.99) / 1e6
	layer["go.sched_p99_us"] = rt.schedP99Us
	layer["cpu_util"] = rt.cpuUtil
	layer["go.alloc_mb"] = rt.allocMB
	if t.attempted > 0 {
		layer["go.alloc_bytes_per_op"] = rt.allocBytes / float64(t.attempted)
	}
	if err := e.writeTrace(tr, layer); err != nil {
		return err
	}
	e.verifyKV(sys, t)
	// Last, because its PUTs bypass the client records the read-back uses:
	// the same op stream through Server.Get/Put, without HTTP.
	layer["kvserver.direct_us_p50"] = directPass(sys.srv, e.procs, e.seed, closed/2).quantile(0.5) / 1e3
	e.reportTraced(setupU, setupT, memU, ur, tres)
	return nil
}

// kvDebug is the part of /debug/lockstat the benchmark reads.
type kvDebug struct {
	Timeouts uint64 `json:"timeouts"`
}

// kvLockLayers files the shard locks' wait tail and contention over the
// traced pass, from the interval diff of the server's lockstat registry.
func kvLockLayers(layer map[string]float64, diffs []lockstat.Report) {
	var acq, cont uint64
	var wait *lockstat.HistSnapshot
	for _, r := range diffs {
		acq += r.Acquires // includes read acquisitions
		cont += r.Contended
		if r.Wait == nil {
			continue
		}
		if wait == nil {
			wait = &lockstat.HistSnapshot{Buckets: make([]uint64, len(r.Wait.Buckets))}
		}
		wait.Count += r.Wait.Count
		wait.SumNs += r.Wait.SumNs
		for i, b := range r.Wait.Buckets {
			if i < len(wait.Buckets) {
				wait.Buckets[i] += b
			}
		}
	}
	if wait != nil {
		layer["kvserver.lock_wait_us_p99"] = wait.Percentile(0.99) / 1e3
	}
	if acq > 0 {
		layer["kvserver.contended_frac"] = float64(cont) / float64(acq)
	}
}

func (e *env) reportKVPass(label string, p *kvPass) passResult {
	r := p.result()
	shed, errs, _ := p.failures()
	late, lateMed := p.late.quantile(0.99)/1e6, p.late.quantile(0.5)/1e6
	var ok int
	var p50s, p99s []float64
	for _, l := range p.lat {
		ok += len(l)
		p50s = append(p50s, l.quantile(0.5)/1e6)
		p99s = append(p99s, l.quantile(0.99)/1e6)
	}
	say("kv-http %s: closed loop %.0f ops/s (windows %s); open loop %.0f ops/s offered, %d ok",
		label, r.opsPerS, fmtList(p.closedOps), kvOpenRate, ok)
	say("latency_p50_ms %.4f ms (windows %s)", r.p50/1e3, fmtList(p50s))
	say("latency_p99_ms %.4f ms (windows %s)", r.p99/1e3, fmtList(p99s))
	say("failed_frac %.6f (%d shed or 503, %d errors, of %d)", float64(shed+errs)/float64(max(p.attempted, 1)), shed, errs, p.attempted)
	say("loadgen.late_p99_ms %.4f ms (median %.4f ms)", late, lateMed)
	// The pacer's lateness is part of every latency; when the typical op
	// is sent late by half the typical latency, the open loop measured the
	// generator, not the service.
	e.check(lateMed < r.p50/1e3/2, "kv-http %s: pacer late median %.3f ms >= half the latency median %.3f ms: open-loop latencies invalid", label, lateMed, r.p50/1e3)
	return r
}

// directPass runs the closed-loop op stream through Server.Get/Put with the
// server's default request deadline, and returns the sorted per-op times.
func directPass(srv *kvserver.Server, procs int, seed int64, d time.Duration) samples {
	var stop atomic.Bool
	var wg sync.WaitGroup
	per := make([]samples, procs)
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := newKVStream(seed, i)
			for !stop.Load() {
				op := st.next()
				t0 := time.Now()
				ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
				if op.put {
					_ = srv.Put(ctx, kvKey(op.key), op.val) // a deadline miss is a timing outcome here
				} else {
					_, _, _ = srv.Get(ctx, kvKey(op.key))
				}
				cancel()
				per[i] = append(per[i], int64(time.Since(t0)))
			}
		}(i)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	var all samples
	for _, p := range per {
		all = append(all, p...)
	}
	return all.sorted()
}
