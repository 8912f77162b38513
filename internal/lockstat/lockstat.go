// Package lockstat is a lock-observability subsystem for the native and
// simulated lock families — the userspace analogue of Linux's lock_stat
// and perf-lock. It keeps a process-wide registry of named lock sites;
// each site carries atomic counters (acquisitions, contended acquisitions,
// trylock steals, direct handoffs, park/unpark events, shuffle rounds) and
// log2-bucketed wait-time and hold-time histograms, and can render itself
// as a lock_stat-style text block or as JSON.
//
// Three entry points feed a site:
//
//   - Instrument wraps any sync.Locker so acquisitions, wait time and hold
//     time are measured from outside the lock.
//   - The ShflLock family (internal/core) reports internal events — steals,
//     handoffs, parks, shuffle rounds — through the core.Probe hooks, which
//     Instrument attaches automatically.
//   - FromSimCounters / FromExtra map the deterministic simulator's counters
//     (internal/simlocks) onto the same Report schema, so one report format
//     covers both substrates.
//
// Overhead: an uninstrumented lock pays nothing (the core hooks reduce to a
// nil-check); a wrapped lock whose registry is disabled pays one atomic
// load per operation. An enabled wrapped lock keeps its uncontended path
// free of extra lock-prefixed instructions and clock reads: zero-wait
// samples accumulate in plain fields guarded by the lock itself and are
// flushed to the site's atomic histogram every 64th acquisition and at
// report time. The clock is read only when an acquisition actually
// contends (wait time) or when hold sampling selects it (hold time).
package lockstat

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a process-wide collection of named lock sites.
type Registry struct {
	enabled  atomic.Bool
	holdEach atomic.Uint64 // record hold time on every n-th acquisition
	mu       sync.Mutex
	sites    map[string]*Site
}

// defaultHoldSampling is the default hold-time sampling interval. Hold
// times need two clock reads per sampled acquisition, so sampling keeps the
// enabled uncontended path within a few percent of an uninstrumented lock;
// SetHoldSampling(1) opts into exact hold histograms.
const defaultHoldSampling = 256

// NewRegistry returns an enabled registry with default hold-time sampling.
func NewRegistry() *Registry {
	r := &Registry{sites: make(map[string]*Site)}
	r.enabled.Store(true)
	r.holdEach.Store(defaultHoldSampling)
	return r
}

// Default is the registry used by the package-level helpers.
var Default = NewRegistry()

// SetEnabled turns statistics collection on or off. While disabled, wrapped
// locks pass straight through and probe events are dropped.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// SetHoldSampling records hold time on every n-th acquisition per wrapper
// (n <= 1 means every acquisition; the default is defaultHoldSampling).
// Sampling trades hold-time histogram mass for two fewer clock reads on
// most acquisitions.
func (r *Registry) SetHoldSampling(n int) {
	if n < 1 {
		n = 1
	}
	r.holdEach.Store(uint64(n))
}

// Site returns the site with the given name, creating it on first use.
// Wrapping several locks with the same name aggregates them into one site.
func (r *Registry) Site(name string) *Site {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.sites[name]; ok {
		return s
	}
	s := &Site{name: name, reg: r}
	r.sites[name] = s
	return s
}

// Sites returns every registered site, sorted by name.
func (r *Registry) Sites() []*Site {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Site, 0, len(r.sites))
	for _, s := range r.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Reset zeroes every site's counters and histograms in place (sites stay
// registered, so existing wrappers keep working). Wrappers' batched samples
// are flushed first, so a reset over quiescent locks is exact.
func (r *Registry) Reset() {
	for _, s := range r.Sites() {
		s.flush()
		s.reset()
	}
}

// Reports snapshots every site, sorted by name.
func (r *Registry) Reports() []Report {
	sites := r.Sites()
	out := make([]Report, 0, len(sites))
	for _, s := range sites {
		out = append(out, s.Report())
	}
	return out
}

// Disable turns collection off for the default registry.
func Disable() { Default.SetEnabled(false) }

// Site is one named lock site: a set of atomic counters plus wait/hold
// histograms. All methods are safe for concurrent use.
type Site struct {
	name string
	reg  *Registry

	fmu      sync.Mutex
	flushers []func() // wrappers' tryFlush hooks, run before reporting

	contended  atomic.Uint64 // acquisitions that went through the waiter queue
	trySuccess atomic.Uint64 // explicit TryLock successes
	tryFail    atomic.Uint64 // explicit TryLock failures
	steals     atomic.Uint64 // fast-path acquisitions past a populated queue
	handoffs   atomic.Uint64 // queue-head status relays to a successor
	parks      atomic.Uint64 // waiters that committed to sleep
	unparks    atomic.Uint64 // parked waiters woken
	unparksCS  atomic.Uint64 // ... of which on the holder's critical path
	shuffles   atomic.Uint64 // shuffling rounds
	shufScan   atomic.Uint64 // queue nodes examined by shufflers
	shufMoves  atomic.Uint64 // queue nodes relocated by shufflers
	reads      atomic.Uint64 // read-side acquisitions (RW locks)
	aborts     atomic.Uint64 // abortable acquisitions that gave up
	reclaims   atomic.Uint64 // abandoned queue nodes unlinked
	holdTick   atomic.Uint64 // hold-sampling counter

	// pmu guards the policy map structure; the per-policy counters inside
	// are atomic, so rounds only take the mutex to find their bucket.
	pmu      sync.Mutex
	policies map[string]*policyCounts

	wait Hist // time from requesting the lock to holding it
	hold Hist // time from acquiring to releasing (sampled)
}

// policyCounts accumulates shuffle activity attributed to one policy.
type policyCounts struct {
	rounds  atomic.Uint64
	scanned atomic.Uint64
	moved   atomic.Uint64
}

// policy returns the counter bucket for the named shuffling policy.
func (s *Site) policy(name string) *policyCounts {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.policies == nil {
		s.policies = make(map[string]*policyCounts)
	}
	c, ok := s.policies[name]
	if !ok {
		c = &policyCounts{}
		s.policies[name] = c
	}
	return c
}

// Name returns the site's registered name.
func (s *Site) Name() string { return s.name }

// addFlusher registers a wrapper's batched-sample flush hook.
func (s *Site) addFlusher(f func()) {
	s.fmu.Lock()
	s.flushers = append(s.flushers, f)
	s.fmu.Unlock()
}

// flush publishes every wrapper's batched samples that can be reached
// without blocking (a wrapper whose lock is held right now is skipped; its
// residue is bounded and lands on the next flush).
func (s *Site) flush() {
	s.fmu.Lock()
	fs := append([]func(){}, s.flushers...)
	s.fmu.Unlock()
	for _, f := range fs {
		f()
	}
}

// Acquires returns the total acquisition count. Every acquisition through
// a wrapper records exactly one wait sample, so this is the wait-histogram
// mass by construction.
func (s *Site) Acquires() uint64 { return s.wait.Count() }

// Contended returns the number of acquisitions that had to wait.
func (s *Site) Contended() uint64 { return s.contended.Load() }

// reset zeroes the site in place.
func (s *Site) reset() {
	s.contended.Store(0)
	s.trySuccess.Store(0)
	s.tryFail.Store(0)
	s.steals.Store(0)
	s.handoffs.Store(0)
	s.parks.Store(0)
	s.unparks.Store(0)
	s.unparksCS.Store(0)
	s.shuffles.Store(0)
	s.shufScan.Store(0)
	s.shufMoves.Store(0)
	s.reads.Store(0)
	s.aborts.Store(0)
	s.reclaims.Store(0)
	s.holdTick.Store(0)
	s.pmu.Lock()
	s.policies = nil
	s.pmu.Unlock()
	s.wait.reset()
	s.hold.reset()
}

// Report snapshots the site into the shared report schema, flushing
// batched wrapper samples first.
func (s *Site) Report() Report {
	s.flush()
	un := s.unparks.Load()
	inCS := s.unparksCS.Load()
	var pols map[string]PolicyShuffleStats
	s.pmu.Lock()
	if len(s.policies) > 0 {
		pols = make(map[string]PolicyShuffleStats, len(s.policies))
		for name, c := range s.policies {
			pols[name] = PolicyShuffleStats{
				Rounds:  c.rounds.Load(),
				Scanned: c.scanned.Load(),
				Moved:   c.moved.Load(),
			}
		}
	}
	s.pmu.Unlock()
	return Report{
		Name:           s.name,
		Substrate:      "native",
		Acquires:       s.Acquires(),
		ReadAcquires:   s.reads.Load(),
		Contended:      s.contended.Load(),
		TrySuccess:     s.trySuccess.Load(),
		TryFail:        s.tryFail.Load(),
		Steals:         s.steals.Load(),
		Handoffs:       s.handoffs.Load(),
		Parks:          s.parks.Load(),
		WakeupsInCS:    inCS,
		WakeupsOffCS:   un - inCS,
		Shuffles:       s.shuffles.Load(),
		ShuffleScanned: s.shufScan.Load(),
		ShuffleMoves:   s.shufMoves.Load(),
		Aborts:         s.aborts.Load(),
		Reclaims:       s.reclaims.Load(),
		Policies:       pols,
		Wait:           s.wait.Snapshot(),
		Hold:           s.hold.Snapshot(),
	}
}

// siteProbe adapts a Site to the core.Probe interface; events are dropped
// while the registry is disabled.
type siteProbe struct{ s *Site }

func (p siteProbe) on() bool { return p.s.reg.enabled.Load() }

func (p siteProbe) Steal(bool) {
	if p.on() {
		p.s.steals.Add(1)
	}
}

func (p siteProbe) Contended() {
	if p.on() {
		p.s.contended.Add(1)
	}
}

func (p siteProbe) Handoff() {
	if p.on() {
		p.s.handoffs.Add(1)
	}
}

func (p siteProbe) Park() {
	if p.on() {
		p.s.parks.Add(1)
	}
}

func (p siteProbe) Unpark(inCS bool) {
	if !p.on() {
		return
	}
	p.s.unparks.Add(1)
	if inCS {
		p.s.unparksCS.Add(1)
	}
}

func (p siteProbe) Abort() {
	if p.on() {
		p.s.aborts.Add(1)
	}
}

func (p siteProbe) Reclaim() {
	if p.on() {
		p.s.reclaims.Add(1)
	}
}

func (p siteProbe) Shuffle(policy string, scanned, moved int) {
	if !p.on() {
		return
	}
	p.s.shuffles.Add(1)
	p.s.shufScan.Add(uint64(scanned))
	p.s.shufMoves.Add(uint64(moved))
	c := p.s.policy(policy)
	c.rounds.Add(1)
	c.scanned.Add(uint64(scanned))
	c.moved.Add(uint64(moved))
}
