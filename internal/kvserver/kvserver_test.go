package kvserver

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"shfllock/internal/core"
	"shfllock/internal/runtimeq"
	"shfllock/internal/shuffle"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func do(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestHTTPCrud covers the full request surface for every lock mode,
// including adaptive.
func TestHTTPCrud(t *testing.T) {
	for _, impl := range append(append([]string{}, Impls...), ImplAdaptive) {
		t.Run(impl, func(t *testing.T) {
			srv, ts := newTestServer(t, Config{Lock: impl, Shards: 4, ScanPace: 1})

			if code, _ := do(t, "GET", ts.URL+"/kv/absent", ""); code != http.StatusNotFound {
				t.Errorf("GET absent = %d, want 404", code)
			}
			if code, _ := do(t, "PUT", ts.URL+"/kv/alpha", "one"); code != http.StatusNoContent {
				t.Errorf("PUT = %d, want 204", code)
			}
			if code, body := do(t, "GET", ts.URL+"/kv/alpha", ""); code != 200 || body != "one" {
				t.Errorf("GET = %d %q, want 200 \"one\"", code, body)
			}
			if code, _ := do(t, "DELETE", ts.URL+"/kv/alpha", ""); code != http.StatusNoContent {
				t.Errorf("DELETE = %d, want 204", code)
			}
			if code, _ := do(t, "DELETE", ts.URL+"/kv/alpha", ""); code != http.StatusNoContent {
				t.Errorf("repeat DELETE = %d, want 204 (idempotent)", code)
			}
			if code, _ := do(t, "GET", ts.URL+"/kv/alpha", ""); code != http.StatusNotFound {
				t.Errorf("GET after DELETE = %d, want 404", code)
			}

			// Scan within one shard: keys sharing a shard come back sorted.
			keys := []string{"scan-c", "scan-a", "scan-b"}
			shard := shardFor("scan-a", 4)
			var same []string
			for _, k := range keys {
				if shardFor(k, 4) == shard {
					same = append(same, k)
				}
				do(t, "PUT", ts.URL+"/kv/"+k, "v-"+k)
			}
			_, body := do(t, "GET", ts.URL+"/scan?start=scan-&limit=10&pace_us=0", "")
			var got []string
			for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
				if line == "" {
					continue
				}
				k := strings.SplitN(line, "\t", 2)[0]
				if strings.HasPrefix(k, "scan-") {
					got = append(got, k)
				}
			}
			if len(got) < 1 {
				t.Fatalf("scan returned no scan- keys: %q", body)
			}
			for i := 1; i < len(got); i++ {
				if got[i] < got[i-1] {
					t.Errorf("scan out of order: %v", got)
				}
			}
			_ = same

			if code, body := do(t, "GET", ts.URL+"/healthz", ""); code != 200 || body != "ok\n" {
				t.Errorf("healthz = %d %q", code, body)
			}
			if v := srv.Violations(); v != 0 {
				t.Fatalf("%d mutual-exclusion violations", v)
			}
		})
	}
}

// TestDeadlineBecomes503: a request whose shard lock cannot be acquired
// within the per-request deadline is shed with 503 + Retry-After instead
// of queueing indefinitely. The writer parked on the shard makes every
// key in that shard unservable; other shards stay live.
func TestDeadlineBecomes503(t *testing.T) {
	for _, impl := range Impls {
		t.Run(impl, func(t *testing.T) {
			srv, ts := newTestServer(t, Config{Lock: impl, Shards: 2, ReqTimeout: 5 * time.Millisecond})

			// Hold shard 0's write lock from outside.
			blocked := srv.shards[0]
			blocked.box.Load().lk.Lock()
			defer blocked.box.Load().lk.Unlock()

			// Find keys on each shard.
			keyOn := func(want int) string {
				for i := 0; ; i++ {
					k := fmt.Sprintf("probe%d", i)
					if shardFor(k, 2) == want {
						return k
					}
				}
			}
			start := time.Now()
			req, _ := http.NewRequest("GET", ts.URL+"/kv/"+keyOn(0), nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("blocked shard GET = %d, want 503", resp.StatusCode)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Error("503 without Retry-After")
			}
			if waited := time.Since(start); waited > 2*time.Second {
				t.Errorf("503 took %v; deadline shedding should be fast", waited)
			}
			if code, _ := do(t, "PUT", ts.URL+"/kv/"+keyOn(1), "x"); code != http.StatusNoContent {
				t.Errorf("other shard PUT = %d, want 204 (only the blocked shard sheds)", code)
			}
		})
	}
}

// TestDebugLockstatIntervals: successive /debug/lockstat hits report
// interval deltas — activity between the calls — not lifetime totals, and
// the payload parses into the documented schema.
func TestDebugLockstatIntervals(t *testing.T) {
	_, ts := newTestServer(t, Config{Lock: ImplShflRW, Shards: 2, ScanPace: 1})

	fetch := func(url string) DebugLockstat {
		t.Helper()
		_, body := do(t, "GET", url, "")
		var d DebugLockstat
		if err := json.Unmarshal([]byte(body), &d); err != nil {
			t.Fatalf("unparseable /debug/lockstat: %v\n%s", err, body)
		}
		return d
	}

	for i := 0; i < 10; i++ {
		do(t, "PUT", ts.URL+fmt.Sprintf("/kv/w%d", i), "x")
	}
	first := fetch(ts.URL + "/debug/lockstat")
	if first.Ops["put"] != 10 {
		t.Errorf("first interval put ops = %d, want 10", first.Ops["put"])
	}

	for i := 0; i < 7; i++ {
		do(t, "GET", ts.URL+fmt.Sprintf("/kv/w%d", i), "")
	}
	second := fetch(ts.URL + "/debug/lockstat")
	if second.Ops["get"] != 7 || second.Ops["put"] != 0 {
		t.Errorf("second interval = get %d put %d, want get 7 put 0 (deltas, not totals)",
			second.Ops["get"], second.Ops["put"])
	}
	var acq, reads uint64
	for _, sh := range second.Shards {
		acq += sh.Report.Acquires
		reads += sh.Report.ReadAcquires
	}
	if acq != 7 || reads != 7 {
		t.Errorf("second interval shard acquires=%d reads=%d, want 7/7", acq, reads)
	}

	life := fetch(ts.URL + "/debug/lockstat?lifetime=1")
	if life.Ops["put"] != 10 || life.Ops["get"] != 7 {
		t.Errorf("lifetime = %v, want put 10 get 7", life.Ops)
	}
	if !life.Lifetime || life.Violations != 0 {
		t.Errorf("lifetime flags wrong: %+v", life)
	}
}

// TestDebugLockstatTransitions: /debug/lockstat carries each shard lock's
// policy-transition tail, so a live policy swap is visible from the report
// alone.
func TestDebugLockstatTransitions(t *testing.T) {
	s, ts := newTestServer(t, Config{Lock: ImplAdaptive, Shards: 2, CtlInterval: time.Hour, CtlHome: "shfl"})
	for _, sh := range s.shards {
		sh.box.Load().lk.(*rwShard).h.SetPolicy(shuffle.NUMA())
	}
	_, body := do(t, "GET", ts.URL+"/debug/lockstat", "")
	var d DebugLockstat
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatalf("unparseable /debug/lockstat: %v\n%s", err, body)
	}
	if len(d.Shards) != 2 {
		t.Fatalf("%d shards in /debug/lockstat, want 2", len(d.Shards))
	}
	for _, sh := range d.Shards {
		if len(sh.Transitions) != 1 {
			t.Fatalf("shard %d (%s) transitions = %q, want the one api install", sh.Shard, sh.Impl, sh.Transitions)
		}
		if tr := sh.Transitions[0]; !strings.Contains(tr, "epoch=1") || !strings.Contains(tr, "-> numa (api)") {
			t.Fatalf("shard %d transitions[0] = %q, want epoch=1 ... -> numa (api)", sh.Shard, tr)
		}
	}
}

// TestAdaptiveConverges: under sustained read-mostly direct traffic every
// busy shard settles on shfl-rw; under write-mostly traffic, shfl-mutex.
func TestAdaptiveConverges(t *testing.T) {
	// Pin the oversubscription axis off: a busy 1-P test process measures
	// as oversubscribed, and this test is about the read/write axis.
	runtimeq.OverrideOversub(false)
	defer runtimeq.ClearOversubOverride()
	s, err := New(Config{
		Lock:        ImplAdaptive,
		Shards:      2,
		PreloadKeys: 200,
		CtlInterval: 20 * time.Millisecond,
		CtlMinOps:   20,
		CtlHome:     "shfl", // pin: auto would pick sync on a 1-P test runner
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	drive := func(readFrac float64, until func() bool) bool {
		deadline := time.Now().Add(5 * time.Second)
		i := 0
		for time.Now().Before(deadline) {
			key := fmt.Sprintf("k%08d", i%200)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			if float64(i%100)/100 < readFrac {
				s.Get(ctx, key)
			} else {
				s.Put(ctx, key, "v")
			}
			cancel()
			i++
			if i%500 == 0 && until() {
				return true
			}
		}
		return until()
	}

	allOn := func(impl string) func() bool {
		return func() bool {
			for _, sh := range s.shards {
				if sh.box.Load().impl != impl {
					return false
				}
			}
			return true
		}
	}

	// Shards start on shfl-rw; write-mostly traffic must flip them.
	if !drive(0.1, allOn(ImplShflMutex)) {
		t.Fatal("write-mostly traffic did not converge shards to shfl-mutex")
	}
	if !drive(0.95, allOn(ImplShflRW)) {
		t.Fatal("read-mostly traffic did not converge shards back to shfl-rw")
	}
	if v := s.Violations(); v != 0 {
		t.Fatalf("%d violations during adaptive switching", v)
	}
	var switches uint64
	for _, sh := range s.shards {
		switches += sh.switches.Load()
	}
	if switches < 4 { // 2 shards × 2 direction changes
		t.Errorf("only %d switches recorded, want >= 4", switches)
	}
}

// TestHysteresisHoldsInBand: read fractions inside the (loRead, hiRead)
// band never trigger a switch, and a single outlying interval (settle=2)
// does not either.
func TestHysteresisHoldsInBand(t *testing.T) {
	runtimeq.OverrideOversub(false) // this test is about the shape axis only
	defer runtimeq.ClearOversubOverride()
	s, err := New(Config{Lock: ImplAdaptive, Shards: 1, CtlInterval: time.Hour, CtlHome: "shfl"}) // ticks driven by hand
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh := s.shards[0]
	ctl := newController(s)

	interval := func(readFrac float64) {
		for i := 0; i < 200; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			key := fmt.Sprintf("h%d", i)
			if float64(i)/200 < readFrac {
				sh.get(ctx, key)
			} else {
				sh.put(ctx, key, "v")
			}
			cancel()
		}
		ctl.tick()
	}

	interval(0.5) // in band
	interval(0.5)
	interval(0.5)
	if impl := sh.box.Load().impl; impl != ImplShflRW {
		t.Fatalf("in-band traffic switched the lock to %s", impl)
	}
	interval(0.1) // one interval of writes: leaning, not yet switching
	if impl := sh.box.Load().impl; impl != ImplShflRW {
		t.Fatalf("single write-heavy interval switched early (settle=2), got %s", impl)
	}
	interval(0.5) // back in band: the streak must reset
	interval(0.1)
	if impl := sh.box.Load().impl; impl != ImplShflRW {
		t.Fatalf("broken streak still switched, got %s", impl)
	}
	interval(0.1) // second consecutive write-heavy interval: now it switches
	if impl := sh.box.Load().impl; impl != ImplShflMutex {
		t.Fatalf("two consecutive write-heavy intervals did not switch, got %s", impl)
	}
}

// TestHomeFamily: CtlHome resolution — explicit values stick, garbage is
// rejected, auto follows the runtime's single-P heuristic, and a sync-home
// controller's calm branch returns to sync rather than shfl.
func TestHomeFamily(t *testing.T) {
	if _, err := New(Config{Lock: ImplAdaptive, CtlHome: "bogus"}); err == nil {
		t.Fatal("bogus CtlHome accepted")
	}
	for home, want := range map[string]string{"shfl": ImplShflRW, "sync": ImplSyncRW} {
		s, err := New(Config{Lock: ImplAdaptive, Shards: 1, CtlInterval: time.Hour, CtlHome: home})
		if err != nil {
			t.Fatal(err)
		}
		if impl := s.shards[0].box.Load().impl; impl != want {
			t.Errorf("home %q starts shards on %s, want %s", home, impl, want)
		}
		s.Close()
	}
	s, err := New(Config{Lock: ImplAdaptive, Shards: 1, CtlInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := "shfl"
	if core.SingleP() {
		want = "sync"
	}
	if s.cfg.CtlHome != want {
		t.Errorf("auto home = %q, want %q (core.SingleP=%v)", s.cfg.CtlHome, want, core.SingleP())
	}

	// A sync-home shard under calm traffic must not drift to shfl: the calm
	// branch points at the home family, not unconditionally at shfl.
	sh := s.shards[0]
	if s.cfg.CtlHome != "sync" {
		s.cfg.CtlHome = "sync" // exercise the sync-home calm branch regardless of runner shape
	}
	ctl := newController(s)
	for i := 0; i < 3; i++ {
		for j := 0; j < 100; j++ {
			sh.site.RecordAcquire(0, true)
		}
		ctl.tick()
	}
	if impl := sh.box.Load().impl; impl != ImplSyncRW {
		t.Errorf("sync-home calm traffic moved the lock to %s, want %s", impl, ImplSyncRW)
	}
}

// TestAbortStormFleesToSync: the family axis. A sustained abort storm
// (deadline pressure) must move a shard to the sync family, calm traffic
// must bring it home, and the two axes compose: a write-heavy storm picks
// sync-mutex. Intervals are synthesized straight into the shard's
// lockstat site — the controller sees only the report diff, so this
// exercises exactly its input surface.
func TestAbortStormFleesToSync(t *testing.T) {
	s, err := New(Config{Lock: ImplAdaptive, Shards: 1, CtlInterval: time.Hour, CtlMinOps: 20, CtlHome: "shfl"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh := s.shards[0]
	ctl := newController(s)

	interval := func(reads, writes, aborts int) {
		for i := 0; i < reads; i++ {
			sh.site.RecordAcquire(0, true)
		}
		for i := 0; i < writes; i++ {
			sh.site.RecordAcquire(0, false)
		}
		for i := 0; i < aborts; i++ {
			sh.site.RecordAbort()
		}
		ctl.tick()
	}

	interval(90, 10, 20) // ~17% of attempts abort, read-heavy
	if impl := sh.box.Load().impl; impl != ImplShflRW {
		t.Fatalf("one stormy interval switched early (settle=2), got %s", impl)
	}
	interval(90, 10, 20)
	if impl := sh.box.Load().impl; impl != ImplSyncRW {
		t.Fatalf("sustained abort storm did not flee to sync-rw, got %s", impl)
	}
	interval(90, 10, 0) // storm over
	interval(90, 10, 0)
	if impl := sh.box.Load().impl; impl != ImplShflRW {
		t.Fatalf("calm traffic did not return to shfl-rw, got %s", impl)
	}
	interval(5, 95, 30) // write-heavy storm: both axes move at once
	interval(5, 95, 30)
	if impl := sh.box.Load().impl; impl != ImplSyncMutex {
		t.Fatalf("write-heavy abort storm should pick sync-mutex, got %s", impl)
	}
	if v := s.Violations(); v != 0 {
		t.Fatalf("%d violations during axis switching", v)
	}
}

// TestOversubscriptionPicksGoro: the oversubscription override. While the
// runtime is oversubscribed, any calm mutex-shaped verdict lands on the
// goroutine-native lock; RW verdicts and abort storms outrank it; and when
// the pressure clears, goro reads as a plain mutex-shaped shfl pick and
// the shard swaps home on its own.
func TestOversubscriptionPicksGoro(t *testing.T) {
	defer runtimeq.ClearOversubOverride()
	s, err := New(Config{Lock: ImplAdaptive, Shards: 1, CtlInterval: time.Hour, CtlMinOps: 20, CtlHome: "shfl"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh := s.shards[0]
	ctl := newController(s)

	interval := func(reads, writes, aborts int) {
		for i := 0; i < reads; i++ {
			sh.site.RecordAcquire(0, true)
		}
		for i := 0; i < writes; i++ {
			sh.site.RecordAcquire(0, false)
		}
		for i := 0; i < aborts; i++ {
			sh.site.RecordAbort()
		}
		ctl.tick()
	}
	converge := func(reads, writes, aborts int, want, why string) {
		t.Helper()
		interval(reads, writes, aborts)
		interval(reads, writes, aborts)
		if impl := sh.box.Load().impl; impl != want {
			t.Fatalf("%s: lock = %s, want %s", why, impl, want)
		}
	}

	runtimeq.OverrideOversub(false)
	converge(5, 95, 0, ImplShflMutex, "write-heavy calm traffic, idle runtime")

	runtimeq.OverrideOversub(true)
	converge(5, 95, 0, ImplGoro, "same traffic once oversubscribed")
	converge(95, 5, 0, ImplShflRW, "read-heavy traffic keeps its reader path even oversubscribed")
	converge(5, 95, 0, ImplGoro, "back to mutex shape while oversubscribed")
	converge(5, 95, 30, ImplSyncMutex, "abort storm outranks oversubscription")
	converge(5, 95, 0, ImplGoro, "storm over but still oversubscribed")

	runtimeq.OverrideOversub(false)
	converge(5, 95, 0, ImplShflMutex, "oversubscription cleared")

	if v := s.Violations(); v != 0 {
		t.Fatalf("%d violations during goro switching", v)
	}
}
