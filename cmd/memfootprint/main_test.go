package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestLockMeasuresEveryRegistryLock: -lock measures the locks it names,
// variants included, instead of filtering a Table 1 that never measured
// them — a heap-node variant gets its own row, flagged heap.
func TestLockMeasuresEveryRegistryLock(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-lock", "mcs-heap,shfl-base,shfl-rw"}, &out); err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			rows[f[0]] = f
		}
	}
	if r := rows["mcs-heap"]; len(r) != 7 || r[4] != "heap" || r[5] == "0.00" {
		t.Errorf("mcs-heap row = %q, want footprint, heap flag and measured atomics\n%s", r, out.String())
	}
	if r := rows["shfl-base"]; len(r) != 6 || r[4] == "0.00" {
		t.Errorf("shfl-base row = %q, want footprint and measured atomics\n%s", r, out.String())
	}
	if r := rows["shfllock-rw"]; len(r) != 3 {
		t.Errorf("shfllock-rw RW row = %q\n%s", r, out.String())
	}
}

// TestLockRejectsUnknownAndNativeOnly: a typo names what the registry
// would have accepted; a native-only lock has no Table 1 row.
func TestLockRejectsUnknownAndNativeOnly(t *testing.T) {
	for spec, want := range map[string]string{
		"no-such-lock": "simulated locks:",
		"goro":         "no simulator implementation",
	} {
		var out bytes.Buffer
		err := run([]string{"-quick", "-lock", spec}, &out)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-lock %s: error %v, want it to contain %q", spec, err, want)
		}
	}
}
