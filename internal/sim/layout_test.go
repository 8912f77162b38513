package sim

import (
	"testing"
	"unsafe"
)

// TestEventLayout pins event to half a cache line. Both queue backends move
// events by value on every push, pop and migration, so growing the struct
// past 32 bytes (two events per line fewer) shows up directly as queue
// memory traffic. If a new field is genuinely needed, shrink or pack an
// existing one rather than crossing the boundary.
func TestEventLayout(t *testing.T) {
	if s := unsafe.Sizeof(event{}); s != 32 {
		t.Fatalf("event is %d bytes, budget is 32", s)
	}
}

// TestThreadLayout pins Thread's hot/cold split: everything the
// charge/handoff/watch path touches must stay within the first 64 bytes so
// a control transfer reads one line per thread, and the spawn-time fields
// must stay off that line. The budget is asserted via the first cold field's
// offset rather than individual hot offsets, so reordering within the hot
// line stays free.
func TestThreadLayout(t *testing.T) {
	var th Thread
	if off := unsafe.Offsetof(th.rng); off != 64 {
		t.Fatalf("Thread hot fields end at %d bytes, budget is 64", off)
	}
	if s := unsafe.Sizeof(th); s != 96 {
		t.Fatalf("Thread is %d bytes, budget is 96 (64 hot + 32 cold)", s)
	}
	hot := []struct {
		name string
		off  uintptr
	}{
		{"eng", unsafe.Offsetof(th.eng)},
		{"cpu", unsafe.Offsetof(th.cpu)},
		{"yield", unsafe.Offsetof(th.yield)},
		{"quantumLeft", unsafe.Offsetof(th.quantumLeft)},
		{"spinStart", unsafe.Offsetof(th.spinStart)},
		{"spinQuantum", unsafe.Offsetof(th.spinQuantum)},
		{"watchLine", unsafe.Offsetof(th.watchLine)},
		{"watchWord", unsafe.Offsetof(th.watchWord)},
		{"epoch", unsafe.Offsetof(th.epoch)},
		{"state", unsafe.Offsetof(th.state)},
		{"needResched", unsafe.Offsetof(th.needResched)},
		{"permit", unsafe.Offsetof(th.permit)},
	}
	for _, f := range hot {
		if f.off >= 64 {
			t.Errorf("hot field %s at offset %d, past the 64-byte line", f.name, f.off)
		}
	}
}
