// Package memsim models the memory hierarchy of a NUMA multiprocessor at
// cache-line granularity. It is the substrate on which every simulated lock
// runs: each 64-bit word lives on a cache line; lines are tracked with a
// single-owner/sharer-set protocol (MESI collapsed to M/S/I); and each access
// is charged a cost that depends on where the line currently lives relative
// to the requesting core.
//
// The model is deliberately simple but captures the effects the paper's
// evaluation depends on:
//
//   - a spinning TAS waiter pulls the lock line exclusive on every attempt,
//     so lock handoff under contention costs one transfer per waiter;
//   - an MCS waiter spins on its own line, which stays in its cache until
//     the predecessor writes it, so handoff costs a single transfer;
//   - consecutive lock holders on the same socket reacquire both the lock
//     word and the critical-section data with cheap intra-socket transfers,
//     which is where NUMA-aware locks win.
package memsim

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"shfllock/internal/alloc/arena"
	"shfllock/internal/topology"
)

// Word names a 64-bit cell of simulated memory.
type Word int32

// NoWord is the zero value sentinel for an unallocated word.
const NoWord Word = -1

const wordsPerLine = 8 // 64-byte lines

// lineState is the coherence state of a cache line.
type lineState uint8

const (
	stateInvalid lineState = iota // only in memory
	stateOwned                    // exclusive/modified in owner's cache
	stateShared                   // clean in one or more caches
)

// line is one simulated cache line's coherence record. It is sized to
// exactly one host cache line (64 bytes, pinned by TestLineLayout): Access
// touches every field of the record on each miss, so packing a record per
// line means one host miss per simulated miss. The narrow fields bound the
// model at 32767 cores (owner), 32767 distinct allocation tags (group,
// checked in group()) and 32767 concurrent watchers per line (watched) —
// orders of magnitude above any machine the harness sweeps.
type line struct {
	// busyUntil serializes cache-to-cache transfers of this line: a line
	// can move between caches only one transfer at a time, so concurrent
	// misses queue behind each other. This is what makes a TAS release
	// under contention O(waiters): every spinner's CAS must take its turn
	// moving the line before the next acquirer can proceed.
	busyUntil uint64
	sharers   bitset // caching cores when stateShared
	owner     int16  // owning core when stateOwned
	group     int16  // stats group
	watched   int16  // number of threads spin-waiting on this line
	state     lineState
}

// AccessKind distinguishes the operations the cost model charges.
type AccessKind uint8

const (
	AccessLoad AccessKind = iota
	AccessStore
	AccessRMW // atomic read-modify-write (CAS, SWAP, FAA)
)

// GroupStats aggregates line movement for one allocation group (tag).
type GroupStats struct {
	Loads       uint64
	Stores      uint64
	Atomics     uint64
	L1Hits      uint64
	LocalXfers  uint64 // intra-socket cache-line transfers
	RemoteXfers uint64 // cross-socket cache-line transfers
	MemFetches  uint64 // fetches from DRAM
}

func (g *GroupStats) add(o GroupStats) {
	g.Loads += o.Loads
	g.Stores += o.Stores
	g.Atomics += o.Atomics
	g.L1Hits += o.L1Hits
	g.LocalXfers += o.LocalXfers
	g.RemoteXfers += o.RemoteXfers
	g.MemFetches += o.MemFetches
}

// Memory is a simulated physical memory with per-line coherence tracking.
type Memory struct {
	topo  topology.Machine
	costs topology.CostModel

	vals  []uint64
	lines []line

	groups     []GroupStats
	groupNames []string
	groupOf    map[string]int16

	// OnWrite, if set, is invoked after any store or RMW to a watched
	// line. The simulator uses it to wake spin-waiting threads.
	OnWrite func(line int32)

	// pooled marks a NewPooled memory; only those return to memoryPool.
	pooled bool
}

// New creates an empty memory for the given machine.
func New(topo topology.Machine, costs topology.CostModel) *Memory {
	if topo.Cores() > math.MaxInt16 {
		panic("memsim: machine too large for line.owner (int16)")
	}
	return &Memory{
		topo:    topo,
		costs:   costs,
		groupOf: make(map[string]int16),
	}
}

// memoryPool recycles Memory images across sweep points: the value and line
// arrays (the simulator's largest per-point allocations) keep their capacity
// between runs, and the group-name map keeps its buckets.
var memoryPool = arena.New(func(m *Memory) {
	*m = Memory{
		vals:       m.vals[:0],
		lines:      m.lines[:0],
		groups:     m.groups[:0],
		groupNames: m.groupNames[:0],
		groupOf:    m.groupOf,
	}
	clear(m.groupOf)
})

// NewPooled creates an empty memory like New, but drawn from (and, after
// Recycle, returned to) the per-point arena pool. Behaviour is identical to
// New in every observable way: Alloc fully initializes each appended word
// and line record, so reused capacity never leaks state between runs.
func NewPooled(topo topology.Machine, costs topology.CostModel) *Memory {
	if topo.Cores() > math.MaxInt16 {
		panic("memsim: machine too large for line.owner (int16)")
	}
	m := memoryPool.Get()
	if m.groupOf == nil {
		m.groupOf = make(map[string]int16)
	}
	m.topo = topo
	m.costs = costs
	m.pooled = true
	return m
}

// Recycle returns a pooled memory's backing to the arena. The caller must
// hold no references to the memory, its stats or its words afterwards; on a
// memory from New it is a no-op.
func (m *Memory) Recycle() {
	if !m.pooled {
		return
	}
	memoryPool.Put(m)
}

// Topology returns the machine the memory was built for.
func (m *Memory) Topology() topology.Machine { return m.topo }

// Costs returns the cost model in effect.
func (m *Memory) Costs() topology.CostModel { return m.costs }

func (m *Memory) group(tag string) int16 {
	if id, ok := m.groupOf[tag]; ok {
		return id
	}
	if len(m.groups) > math.MaxInt16 {
		panic("memsim: too many allocation tags for line.group (int16)")
	}
	id := int16(len(m.groups))
	m.groups = append(m.groups, GroupStats{})
	m.groupNames = append(m.groupNames, tag)
	m.groupOf[tag] = id
	return id
}

// Alloc allocates n contiguous words under the given stats tag. Words are
// packed 8 to a cache line, and an Alloc never shares a line with a previous
// Alloc (each allocation starts on a fresh line), mirroring how a C struct
// containing a lock is laid out.
func (m *Memory) Alloc(tag string, n int) []Word {
	if n <= 0 {
		panic("memsim: Alloc of non-positive size")
	}
	g := m.group(tag)
	// Start on a fresh line: pad the value array to a line boundary so
	// that LineOf(w) == w/wordsPerLine stays consistent.
	for len(m.vals)%wordsPerLine != 0 {
		m.vals = append(m.vals, 0)
	}
	ws := make([]Word, n)
	for i := range ws {
		if len(m.vals)%wordsPerLine == 0 {
			m.lines = append(m.lines, line{state: stateInvalid, owner: -1, group: g})
		}
		ws[i] = Word(len(m.vals))
		m.vals = append(m.vals, 0)
	}
	return ws
}

// AllocWord allocates a single word on its own cache line.
func (m *Memory) AllocWord(tag string) Word { return m.Alloc(tag, 1)[0] }

// AllocPadded allocates n words, each on its own cache line (padded to
// avoid false sharing), as queue-lock implementations do for per-socket or
// per-CPU structures.
func (m *Memory) AllocPadded(tag string, n int) []Word {
	ws := make([]Word, n)
	for i := range ws {
		ws[i] = m.AllocWord(tag)
	}
	return ws
}

// TagOf returns the allocation tag of the line holding w (diagnostics).
func (m *Memory) TagOf(w Word) string {
	return m.groupNames[m.lines[m.LineOf(w)].group]
}

// LineOf returns the cache line holding w.
func (m *Memory) LineOf(w Word) int32 { return int32(int(w) / wordsPerLine) }

// Watch marks the line holding w so that OnWrite fires when it is written.
// Watch calls nest; each must be paired with an Unwatch.
func (m *Memory) Watch(w Word) { m.lines[m.LineOf(w)].watched++ }

// Unwatch removes one watcher from the line holding w.
func (m *Memory) Unwatch(w Word) { m.lines[m.LineOf(w)].watched-- }

// Peek reads a word's value without simulating an access (for assertions
// and debugging only).
func (m *Memory) Peek(w Word) uint64 { return m.vals[w] }

// Poke sets a word's value without simulating an access (initialization).
func (m *Memory) Poke(w Word, v uint64) { m.vals[w] = v }

// Access performs a simulated memory access of the given kind by core at
// virtual time now, and returns its total latency in cycles, including any
// time spent queueing for the cache line. Cache hits complete immediately;
// transfers serialize per line.
func (m *Memory) Access(now uint64, core int, w Word, kind AccessKind) uint64 {
	ln := &m.lines[m.LineOf(w)]
	st := &m.groups[ln.group]
	var cost uint64
	switch kind {
	case AccessLoad:
		st.Loads++
		cost = m.chargeRead(core, ln, st)
	case AccessStore:
		st.Stores++
		cost = m.chargeWrite(core, ln, st)
	case AccessRMW:
		st.Atomics++
		cost = m.chargeWrite(core, ln, st) + m.costs.AtomicExtra
	}
	if cost <= m.costs.L1Hit+m.costs.AtomicExtra {
		return cost // hits don't occupy the line's transfer slot
	}
	start := now
	if ln.busyUntil > start {
		start = ln.busyUntil
	}
	// Writes and RMWs occupy the line's transfer slot for the full
	// transfer (ownership moves serially); read transfers pipeline at the
	// source cache and occupy only a fraction of the slot.
	occupy := cost
	if kind == AccessLoad {
		occupy = cost / 4
	}
	ln.busyUntil = start + occupy
	return (start - now) + cost
}

// NotifyWrite fires the OnWrite callback if the line holding w is watched.
// The simulator calls it after the new value is visible, so woken spinners
// observe the write.
func (m *Memory) NotifyWrite(w Word) {
	ln := m.LineOf(w)
	if m.lines[ln].watched > 0 && m.OnWrite != nil {
		m.OnWrite(ln)
	}
}

// chargeRead brings the line into core's cache in shared state.
func (m *Memory) chargeRead(core int, ln *line, st *GroupStats) uint64 {
	switch ln.state {
	case stateOwned:
		if int(ln.owner) == core {
			st.L1Hits++
			return m.costs.L1Hit
		}
		// Fetch from the owner; owner demotes to sharer.
		cost := m.xferCost(core, int(ln.owner), st)
		ln.sharers.reset()
		ln.sharers.set(int(ln.owner))
		ln.sharers.set(core)
		ln.state = stateShared
		ln.owner = -1
		return cost
	case stateShared:
		if ln.sharers.has(core) {
			st.L1Hits++
			return m.costs.L1Hit
		}
		src := m.nearestSharer(core, ln)
		cost := m.xferCost(core, src, st)
		ln.sharers.set(core)
		return cost
	default: // invalid: fetch from memory
		st.MemFetches++
		ln.state = stateShared
		ln.sharers.reset()
		ln.sharers.set(core)
		return m.costs.DRAM
	}
}

// chargeWrite obtains the line exclusively in core's cache, invalidating
// all other copies. Note a failed CAS still performs this step, exactly as
// real hardware acquires the line in M state before the compare.
func (m *Memory) chargeWrite(core int, ln *line, st *GroupStats) uint64 {
	switch ln.state {
	case stateOwned:
		if int(ln.owner) == core {
			st.L1Hits++
			return m.costs.L1Hit
		}
		cost := m.xferCost(core, int(ln.owner), st)
		ln.owner = int16(core)
		return cost
	case stateShared:
		if ln.sharers.has(core) && ln.sharers.count() == 1 {
			// Sole sharer: silent upgrade.
			st.L1Hits++
			ln.state = stateOwned
			ln.owner = int16(core)
			ln.sharers.reset()
			return m.costs.L1Hit
		}
		// Invalidate all sharers; cost is dominated by the farthest
		// invalidation we must wait for.
		cost := m.invalidateCost(core, ln, st)
		ln.state = stateOwned
		ln.owner = int16(core)
		ln.sharers.reset()
		return cost
	default:
		st.MemFetches++
		ln.state = stateOwned
		ln.owner = int16(core)
		ln.sharers.reset()
		return m.costs.DRAM
	}
}

// xferCost is the cost of moving a line from core src to core dst.
func (m *Memory) xferCost(dst, src int, st *GroupStats) uint64 {
	if m.topo.SocketOf(dst) == m.topo.SocketOf(src) {
		st.LocalXfers++
		return m.costs.LocalXfer
	}
	st.RemoteXfers++
	return m.costs.RemoteXfer
}

// nearestSharer picks a source core for a shared-line fetch, preferring a
// sharer on the requester's socket. The bitset is walked directly rather
// than through bitset.iter: this runs on every shared-line miss, and the
// iterator's closure would allocate each time.
func (m *Memory) nearestSharer(core int, ln *line) int {
	mySock := m.topo.SocketOf(core)
	best := -1
	limit := m.topo.Cores()
	for wi := 0; wi<<6 < limit; wi++ {
		wv := ln.sharers.word(wi)
		for wv != 0 {
			bit := bits.TrailingZeros64(wv)
			c := wi<<6 + bit
			if c >= limit {
				return best
			}
			if best == -1 {
				best = c
			}
			if m.topo.SocketOf(c) == mySock {
				return c
			}
			wv &^= 1 << uint(bit)
		}
	}
	return best
}

// invalidateCost charges for invalidating every foreign copy of a shared
// line; the requester stalls for the farthest acknowledgment. Like
// nearestSharer, it walks the bitset words directly to keep the write hot
// path allocation-free.
func (m *Memory) invalidateCost(core int, ln *line, st *GroupStats) uint64 {
	mySock := m.topo.SocketOf(core)
	remote := false
	local := false
	limit := m.topo.Cores()
	for wi := 0; wi<<6 < limit && !remote; wi++ {
		wv := ln.sharers.word(wi)
		for wv != 0 {
			bit := bits.TrailingZeros64(wv)
			c := wi<<6 + bit
			if c >= limit {
				break
			}
			wv &^= 1 << uint(bit)
			if c == core {
				continue
			}
			if m.topo.SocketOf(c) == mySock {
				local = true
			} else {
				remote = true
				break
			}
		}
	}
	switch {
	case remote:
		st.RemoteXfers++
		return m.costs.RemoteXfer
	case local:
		st.LocalXfers++
		return m.costs.LocalXfer
	default:
		st.L1Hits++
		return m.costs.L1Hit
	}
}

// Value accessors used by the simulator's typed operations.

// Get returns the current value of w (no cost; pair with Access).
func (m *Memory) Get(w Word) uint64 { return m.vals[w] }

// Set assigns the value of w (no cost; pair with Access).
func (m *Memory) Set(w Word, v uint64) { m.vals[w] = v }

// Stats returns aggregate statistics for the named group, or the zero
// value if the tag was never allocated.
func (m *Memory) Stats(tag string) GroupStats {
	if id, ok := m.groupOf[tag]; ok {
		return m.groups[id]
	}
	return GroupStats{}
}

// StatsPrefix sums statistics over all groups whose tag starts with
// prefix (e.g. one lock's words plus its queue nodes).
func (m *Memory) StatsPrefix(prefix string) GroupStats {
	var t GroupStats
	for i, name := range m.groupNames {
		if strings.HasPrefix(name, prefix) {
			t.add(m.groups[i])
		}
	}
	return t
}

// TotalStats sums statistics over all groups.
func (m *Memory) TotalStats() GroupStats {
	var t GroupStats
	for i := range m.groups {
		t.add(m.groups[i])
	}
	return t
}

// Footprint returns the number of simulated bytes allocated.
func (m *Memory) Footprint() uint64 { return uint64(len(m.lines)) * wordsPerLine * 8 }

func (m *Memory) String() string {
	return fmt.Sprintf("memsim(%d words, %d lines)", len(m.vals), len(m.lines))
}

// bitset is a bitmap of core IDs. The first inlineCores cores live in a
// fixed inline array — sized so the paper's 8x24 reference machine (192
// cores) fits exactly, making set/reset allocation-free on every swept
// topology — and larger machines spill to a heap-allocated overflow slice.
// The split also keeps the containing line record on its 64-byte budget.
const (
	inlineWords = 3
	inlineCores = inlineWords * 64
)

type bitset struct {
	a    [inlineWords]uint64
	over []uint64 // words for cores >= inlineCores, nil on small machines
}

func (b *bitset) set(i int) {
	if i < inlineCores {
		b.a[i>>6] |= 1 << (uint(i) & 63)
		return
	}
	idx := i>>6 - inlineWords
	for len(b.over) <= idx {
		b.over = append(b.over, 0)
	}
	b.over[idx] |= 1 << (uint(i) & 63)
}

func (b *bitset) has(i int) bool {
	if i < inlineCores {
		return b.a[i>>6]&(1<<(uint(i)&63)) != 0
	}
	idx := i>>6 - inlineWords
	return idx < len(b.over) && b.over[idx]&(1<<(uint(i)&63)) != 0
}

func (b *bitset) reset() {
	b.a = [inlineWords]uint64{}
	for i := range b.over {
		b.over[i] = 0
	}
}

func (b *bitset) count() int {
	n := 0
	for _, w := range b.a {
		n += bits.OnesCount64(w)
	}
	for _, w := range b.over {
		n += bits.OnesCount64(w)
	}
	return n
}

// word returns the wi'th 64-bit word of the bitmap (zero past the end), so
// the hot walkers can scan inline and overflow words uniformly.
func (b *bitset) word(wi int) uint64 {
	if wi < inlineWords {
		return b.a[wi]
	}
	wi -= inlineWords
	if wi < len(b.over) {
		return b.over[wi]
	}
	return 0
}

// iter yields the set bits below limit.
func (b *bitset) iter(limit int) func(func(int) bool) {
	return func(yield func(int) bool) {
		for wi := 0; wi<<6 < limit; wi++ {
			w := b.word(wi)
			for w != 0 {
				bit := bits.TrailingZeros64(w)
				c := wi<<6 + bit
				if c >= limit {
					return
				}
				if !yield(c) {
					return
				}
				w &^= 1 << uint(bit)
			}
		}
	}
}
