package lockstat

import "shfllock/internal/core"

// Direct recording entry points for lock wrappers that live outside this
// package. internal/kvserver's ShardLock implementations cannot use
// Instrument/InstrumentRW — their acquisition surface is LockContext with a
// per-request deadline, not sync.Locker — so they time acquisitions
// themselves and feed the same Site schema through these methods. The
// invariants the wrappers keep hold here too: record exactly one wait
// sample per successful acquisition (wait-histogram mass is the acquisition
// count) and nothing for an acquisition that aborted.

// RecordAcquire accounts one successful acquisition with the measured wait;
// read marks a read-side acquisition on an RW lock. A negative wait is
// clamped to zero. No-op while the registry is disabled.
func (s *Site) RecordAcquire(waitNs int64, read bool) {
	if !s.reg.enabled.Load() {
		return
	}
	if read {
		s.reads.Add(1)
	}
	if waitNs <= 0 {
		s.wait.RecordZero()
		return
	}
	s.wait.Record(waitNs)
}

// RecordHold accounts one sampled hold time.
func (s *Site) RecordHold(holdNs int64) {
	if !s.reg.enabled.Load() {
		return
	}
	s.hold.Record(holdNs)
}

// RecordContended marks one acquisition as contended. Locks carrying a
// CoreProbe report contention exactly through the probe and must not call
// this; it exists for baseline locks (sync.Mutex, sync.RWMutex) where the
// wrapper classifies contention from a failed fast-path attempt.
func (s *Site) RecordContended() {
	if s.reg.enabled.Load() {
		s.contended.Add(1)
	}
}

// RecordAbort marks one abortable acquisition that gave up (deadline or
// cancellation before the lock was held). Probe-carrying locks report
// aborts themselves.
func (s *Site) RecordAbort() {
	if s.reg.enabled.Load() {
		s.aborts.Add(1)
	}
}

// CoreProbe returns a core.Probe feeding this site, for attaching to a
// ShflLock via SetProbe when the lock is managed outside Instrument (e.g. a
// kvserver shard lock that is swapped at runtime: every generation of the
// shard's lock attaches the same site, so the per-shard history survives
// handovers). Events are dropped while the registry is disabled.
func (s *Site) CoreProbe() core.Probe { return siteProbe{s} }
