package kvserver

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"
	"time"

	"shfllock/internal/lockstat"
)

// lockBox pairs a lock with its implementation name. A shard's current box
// is published through an atomic pointer; the box is immutable after
// creation, so a loaded box is always internally consistent.
type lockBox struct {
	impl string
	lk   ShardLock
}

// shard is one slice of the key space: a hash map plus a sorted key index
// (for ordered scans), guarded by a swappable lock.
//
// # Handover protocol
//
// The shard's lock can be replaced at runtime (adaptive mode). Correctness
// rests on two rules:
//
//  1. A request may only touch shard data while holding a lock it has
//     re-validated as current: acquire the loaded box's lock, then re-load
//     the pointer — if it changed, release and retry on the new box.
//  2. The controller publishes a new box only while holding the old lock
//     exclusively (the drain): old.Lock(); box.Store(new); old.Unlock().
//
// Why no old-lock critical section can overlap a new-lock critical section:
// the swap store happens while the old lock is held exclusively, so every
// old-lock holder that passed its re-validation did so strictly before the
// drain began — and has released before the store. Every acquirer that
// reaches its re-validation after the store observes the new box (the
// re-validation load is ordered after the acquisition, which synchronizes
// with the drain's release) and backs off. Waiters still queued on the old
// lock eventually acquire it — directly, via their deadline's abandonment
// path, or via ctxAcquire's orphaned grant — and every such grant lands in
// the re-validation branch, releases, and retries on the new box. The old
// lock then quiesces and is garbage collected; nothing is freed manually,
// so there is no use-after-free window to reason about.
//
// The writers/violations pair is a live mutual-exclusion detector over the
// protocol itself: every write section asserts it is alone, every read
// section asserts no writer is inside. It is cheap (one atomic add/load per
// op), runs in production builds, and is what the verify.sh smoke gate and
// the -race torture assert on.
type shard struct {
	box      atomic.Pointer[lockBox]
	site     *lockstat.Site
	switches atomic.Uint64

	// Shard data. Guarded by the current box's lock.
	data map[string]string
	keys []string // sorted; the scan index
	seq  uint64   // plain on purpose: written under the write lock only,
	// so -race turns any handover hole into a report

	writers    atomic.Int32
	violations *atomic.Uint64 // server-wide violation counter
}

func newShard(impl string, site *lockstat.Site, violations *atomic.Uint64) (*shard, error) {
	lk, err := NewLock(impl, site)
	if err != nil {
		return nil, err
	}
	s := &shard{
		data:       make(map[string]string),
		site:       site,
		violations: violations,
	}
	b := &lockBox{impl: impl, lk: lk}
	s.box.Store(b)
	return s, nil
}

// acquire locks the shard's current lock (shared when read is set),
// re-validating against a concurrent handover.
func (s *shard) acquire(ctx context.Context, read bool) (*lockBox, error) {
	for {
		b := s.box.Load()
		var err error
		if read {
			err = b.lk.RLockContext(ctx)
		} else {
			err = b.lk.LockContext(ctx)
		}
		if err != nil {
			return nil, err
		}
		if s.box.Load() == b {
			return b, nil
		}
		// The lock was swapped while we waited; this grant is on the old
		// generation and must not touch data.
		if read {
			b.lk.RUnlock()
		} else {
			b.lk.Unlock()
		}
	}
}

// enterWrite/exitWrite and checkRead are the mutual-exclusion detector.
func (s *shard) enterWrite() {
	if s.writers.Add(1) != 1 {
		s.violations.Add(1)
	}
}

func (s *shard) exitWrite() { s.writers.Add(-1) }

func (s *shard) checkRead() {
	if s.writers.Load() != 0 {
		s.violations.Add(1)
	}
}

// get looks a key up under a read share.
func (s *shard) get(ctx context.Context, key string) (string, bool, error) {
	b, err := s.acquire(ctx, true)
	if err != nil {
		return "", false, err
	}
	s.checkRead()
	v, ok := s.data[key]
	b.lk.RUnlock()
	return v, ok, nil
}

// put inserts or overwrites a key. New keys also enter the sorted index
// (binary search + insert), which is the real storage-engine work a write
// holds the lock for.
func (s *shard) put(ctx context.Context, key, val string) error {
	b, err := s.acquire(ctx, false)
	if err != nil {
		return err
	}
	s.enterWrite()
	if _, exists := s.data[key]; !exists {
		i := sort.SearchStrings(s.keys, key)
		s.keys = append(s.keys, "")
		copy(s.keys[i+1:], s.keys[i:])
		s.keys[i] = key
	}
	s.data[key] = val
	s.seq++
	s.exitWrite()
	b.lk.Unlock()
	return nil
}

// delete removes a key; deleting an absent key is a no-op (idempotent).
func (s *shard) delete(ctx context.Context, key string) error {
	b, err := s.acquire(ctx, false)
	if err != nil {
		return err
	}
	s.enterWrite()
	if _, exists := s.data[key]; exists {
		delete(s.data, key)
		i := sort.SearchStrings(s.keys, key)
		s.keys = append(s.keys[:i], s.keys[i+1:]...)
	}
	s.seq++
	s.exitWrite()
	b.lk.Unlock()
	return nil
}

// scan streams up to limit entries in key order starting at start, calling
// emit for each under the read share. pace is an inter-entry delay modeling
// a client-paced streaming response (an SSE-ish consumer): the share is
// held across the pacing sleeps, which is exactly the long-reader pattern
// that separates RW locks from mutexes in a live service. emit returning
// false stops the scan (client gone).
func (s *shard) scan(ctx context.Context, start string, limit int, pace time.Duration,
	emit func(k, v string) bool) (int, error) {
	b, err := s.acquire(ctx, true)
	if err != nil {
		return 0, err
	}
	defer b.lk.RUnlock()
	s.checkRead()
	n := 0
	for i := sort.SearchStrings(s.keys, start); i < len(s.keys) && n < limit; i++ {
		k := s.keys[i]
		if !emit(k, s.data[k]) {
			break
		}
		n++
		if pace > 0 && n < limit {
			timer := time.NewTimer(pace)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return n, nil // partial scan: deadline hit mid-stream
			}
		}
	}
	return n, nil
}

// swapLock replaces the shard's lock with a fresh impl instance: drain via
// the old lock, publish, release. Returns false when the shard already
// runs impl, or when a concurrent swapper got there first — after the
// drain, the box is re-validated exactly like a request would, so racing
// swappers cannot publish over a box they do not hold.
func (s *shard) swapLock(impl string) (bool, error) {
	old := s.box.Load()
	if old.impl == impl {
		return false, nil
	}
	lk, err := NewLock(impl, s.site)
	if err != nil {
		return false, err
	}
	nb := &lockBox{impl: impl, lk: lk}
	old.lk.Lock() // drain: waits out every current holder
	if s.box.Load() != old {
		old.lk.Unlock() // lost the race to another swapper
		return false, nil
	}
	s.enterWrite()
	s.seq++ // the swap is a write to the shard's metadata
	s.exitWrite()
	s.box.Store(nb)
	old.lk.Unlock()
	s.switches.Add(1)
	return true, nil
}

// shardFor hashes a key onto a shard index (FNV-1a).
func shardFor(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// siteName names a shard's lockstat site.
func siteName(i int) string { return fmt.Sprintf("kv/shard%02d", i) }
