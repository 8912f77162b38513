package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile runtime/pprof writes is a gzipped profile.proto message.
// The benchmark decodes the few fields it needs with this minimal protobuf
// reader, so self-time shares come from the stdlib alone:
//
//	Profile  { 2: Sample  4: Location  5: Function  6: string_table }
//	Sample   { 1: location_id (packed or not)  2: value (packed or not) }
//	Location { 1: id  4: Line }             Line { 1: function_id }
//	Function { 1: id  2: name (string_table index) }
//
// A location's first Line is the innermost (inlined) frame.

type pbField struct {
	num  int
	wire int
	v    uint64 // varint value
	b    []byte // length-delimited payload
}

func pbVarint(b []byte) (uint64, int, error) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1, nil
		}
	}
	return 0, 0, errors.New("profile: bad varint")
}

func pbFields(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n, err = pbVarint(b); err != nil {
				return err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n, err := pbVarint(b)
			if err != nil || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated integer field, packed or not.
func pbUints(f pbField, out []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(out, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		v, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// cpuSample is one profile sample: its stack as function names, leaf first,
// and its CPU time.
type cpuSample struct {
	stack []string
	ns    int64
}

func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		strs    []string
		samples []rawSample
		locFn   = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string index
	)
	err = pbFields(raw, func(f pbField) error {
		var err error
		switch f.num {
		case 2:
			var s rawSample
			err = pbFields(f.b, func(g pbField) error {
				var err error
				switch g.num {
				case 1:
					s.locs, err = pbUints(g, s.locs)
				case 2:
					s.vals, err = pbUints(g, s.vals)
				}
				return err
			})
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err = pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4:
					return pbFields(g.b, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			locFn[id] = fns
		case 5:
			var id, name uint64
			err = pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			})
			fnName[id] = name
		case 6:
			strs = append(strs, string(f.b))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		cs := cpuSample{ns: int64(s.vals[len(s.vals)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFn[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					cs.stack = append(cs.stack, strs[i])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// pkgOf returns the package path of a symbol such as
// "shfllock/internal/sim.(*Engine).run" or "runtime.mallocgc".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: type arguments name other packages
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// gcFrames mark a sample as garbage-collector work wherever they appear on
// its stack.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcStart",
	"runtime.gcDrain", "runtime.markroot", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone"}

// schedFrames mark a runtime-leaf sample as goroutine scheduling: parking,
// readying, switching and the channel and semaphore paths that do so.
var schedFrames = []string{"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.mcall", "runtime.gosched_m",
	"runtime.goschedImpl", "runtime.Gosched", "runtime.chansend", "runtime.chanrecv",
	"runtime.selectgo", "runtime.notesleep", "runtime.notewakeup", "runtime.wakep",
	"runtime.startm", "runtime.stopm", "runtime.mPark", "runtime.semacquire", "runtime.semrelease",
	"runtime.netpoll", "runtime.execute", "runtime.gogo", "runtime.timeSleep", "runtime.osyield"}

func stackHas(stack []string, prefixes []string) bool {
	for _, f := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

func isRuntimePkg(p string) bool {
	return p == "runtime" || strings.HasPrefix(p, "internal/runtime/") || strings.HasPrefix(p, "runtime/internal/")
}

// profileShares attributes each sample's CPU time to its leaf frame's
// package and returns shares of the profile's total: "pkg:<path>" per
// package, plus "gc" and "sched" for the runtime's collector and scheduler.
func profileShares(ss []cpuSample) map[string]float64 {
	var total float64
	out := map[string]float64{}
	for _, s := range ss {
		if len(s.stack) == 0 {
			continue
		}
		v := float64(s.ns)
		total += v
		leaf := pkgOf(s.stack[0])
		out["pkg:"+leaf] += v
		switch {
		case stackHas(s.stack, gcFrames):
			out["gc"] += v
		case isRuntimePkg(leaf) && stackHas(s.stack, schedFrames):
			out["sched"] += v
		}
	}
	if total > 0 {
		for k := range out {
			out[k] /= total
		}
	}
	return out
}
