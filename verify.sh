#!/bin/sh
# verify.sh — the repo's full verification gate.
#
#   ./verify.sh          vet + tier-1 (build + tests) + race on internal/core,
#                        internal/sim and internal/chaos
#   ./verify.sh -short   same, but tests run with -short
#
# Tier-1 is the contract every change must keep green:
#   go build ./... && go test ./...
# The race pass re-runs the native-lock package (including the shuffling
# invariant and steal-path liveness tests) under the race detector, which
# is where lock bugs hide. A second race pass covers the simulator, whose
# threads hand the CPU to each other as coroutines through a hub loop:
# every switch must carry a happens-before edge for the engine state the
# threads share.
#
# The shape gate runs four times — serially, with a parallel worker pool,
# with the engine fast path disabled, and with the timer wheel and arenas
# disabled — and diffs the outputs byte-for-byte against each other and
# against the committed results_quick.txt: the harness guarantees identical
# results whatever the execution order, and the engine guarantees identical
# results whichever path advances virtual time and whichever event-queue
# backend orders it. This is where those guarantees are enforced. A
# randomized differential test additionally pins the wheel's pop order to
# the reference heap's, and one figure family (Figure 8) runs at full
# fidelity against a committed golden.
#
# The chaos gates pin the fault-injection layer: a fixed-seed run must be
# byte-identical across invocations and to the committed golden (with the
# watchdog quiet), and an injected holder-stall deadlock must fire the
# watchdog and produce a post-mortem instead of hanging. A second seeded
# run arms the policy-flip fault — live transitions forced mid-shuffle,
# during abort reclaim, and at head abdication — and must certify queue
# integrity (ops accounting, clean queue) against its own golden. A short
# native abort torture closes the loop on the real locks, including one
# run under the "auto" self-tuning meta-policy.
set -eu

cd "$(dirname "$0")"

SHORT=""
if [ "${1:-}" = "-short" ]; then
	SHORT="-short"
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test ./...  (tier-1)"
go test $SHORT ./...

echo "== go test -race ./internal/core/...  (incl. steal-path liveness)"
go test -race $SHORT ./internal/core/...

echo "== go test -race ./internal/sim ./internal/chaos  (coroutine handoff)"
go test -race -count=1 $SHORT ./internal/sim ./internal/chaos

echo "== single-P cache gate: runtime cache follows GOMAXPROCS at 1 and 2 Ps"
# The cached P count (internal/runtimeq) must follow a GOMAXPROCS change
# whatever the core count of the box running the suite, so the tests that
# pin it run at both P counts.
go test -count=1 -cpu 1,2 -run 'SingleP|Refresh' ./internal/core ./internal/runtimeq

echo "== differential shuffle gate: one engine, two substrates"
go test -race -run 'TestDifferentialShuffle' ./internal/core

echo "== layering gate: no hand-inlined shuffle walk outside internal/shuffle"
if grep -rn "func .*shuffleWaiters" internal/core internal/simlocks; then
	echo "FAIL: a substrate reintroduced a local shuffleWaiters; the queue walk lives in internal/shuffle" >&2
	exit 1
fi

echo "== registry gate: binaries pick locks by name, never by a local case-switch"
# Every binary resolves lock names through internal/lockreg; a hand-rolled
# `case "mutex":`-style switch in a cmd or in the kvserver/chaos glue means
# a lock was wired up outside the registry and will be missing everywhere
# else (help strings, -list, capability errors, torture coverage).
if grep -rnE 'case "(mutex|spinlock|rwmutex|shfl-[a-z]+|goro|goro-[a-z]+|sync\.(RW)?Mutex|sync-(mutex|rw)|tas|ticket|mcs|cna|fissile|hapax|reciprocating|shfllock[a-z+-]*)"' \
	--include='*.go' cmd internal/kvserver internal/chaos | grep -v _test.go; then
	echo "FAIL: a binary switches on lock names locally; register the lock in internal/lockreg instead" >&2
	exit 1
fi

echo "== name-resolution gate: memfootprint -lock measures what the registry resolves"
# Any registry spelling must yield the row the full Table 1 measures
# (canonical shfl-mutex is the simulator's shfllock-b), and a variant
# outside Table 1's lineup must get its own measured row, heap flag
# included.
ROWS='^(mcs|shfllock-b|stock-rwsem) '
go run ./cmd/memfootprint -quick -lock mcs,shfl-mutex,stock-rwsem | grep -E "$ROWS" >/tmp/memfootprint-lock.txt
awk '/^=== /{s=($2=="table1:")} s' results_quick.txt | grep -E "$ROWS" | diff - /tmp/memfootprint-lock.txt
go run ./cmd/memfootprint -quick -lock mcs-heap | grep -qE '^mcs-heap .* heap '
echo "memfootprint -lock rows match results_quick.txt; mcs-heap measured with its heap flag"

echo "== transition gate: policy stores go through the epoched transition API"
# A live policy switch is only safe through PolicyBox.Set (epoch fence +
# transition log); a direct store to a policy field reintroduces the torn
# read the transition protocol exists to prevent. Only internal/shuffle
# itself (which implements the box) and tests may touch such fields.
if grep -rnE '\.(policy|Policy)\s*=[^=]' --include='*.go' internal cmd | grep -v 'internal/shuffle/' | grep -v '_test.go'; then
	echo "FAIL: a policy field is stored directly; route the switch through the lock's SetPolicy / shuffle.PolicyBox" >&2
	exit 1
fi

echo "== shape gate: shflbench -exp all -quick -parallel 1 (serial)"
go run ./cmd/shflbench -exp all -quick -parallel 1 >/tmp/shflbench-serial.txt
grep "shape\[" /tmp/shflbench-serial.txt

echo "== shootout gate: successor locks hold their shapes on both nano-benches"
# The Fissile/Hapax/Reciprocating lineup must appear in the quick sweep and
# win its qualitative claims (queue handoff beats TAS collapse; FIFO
# admission shows up as fairness).
grep -q '=== shootout-a' /tmp/shflbench-serial.txt
grep -q '=== shootout-b' /tmp/shflbench-serial.txt
test "$(grep -cE 'shape\[ok\]: (fissile|hapax|reciprocating) / tas' /tmp/shflbench-serial.txt)" -eq 6
grep -q 'shape\[ok\]: hapax fairness' /tmp/shflbench-serial.txt
echo "shootout shapes held for fissile, hapax, reciprocating"

echo "== shape gate: shflbench -exp all -quick -parallel 4 (determinism diff)"
go run ./cmd/shflbench -exp all -quick -parallel 4 >/tmp/shflbench-parallel.txt
diff /tmp/shflbench-serial.txt /tmp/shflbench-parallel.txt
echo "parallel output byte-identical to serial"

echo "== shape gate: shflbench -exp all -quick -enginefast=false (fast-path oracle diff)"
go run ./cmd/shflbench -exp all -quick -parallel 4 -enginefast=false >/tmp/shflbench-slowpath.txt
diff /tmp/shflbench-serial.txt /tmp/shflbench-slowpath.txt
echo "slow-path output byte-identical to fast-path"

echo "== shape gate: shflbench -exp all -quick -enginewheel=false (timer-wheel/arena oracle diff)"
# The timer wheel and the per-point arenas replace the reference event heap
# and plain heap allocation; the reference path survives as the oracle, and
# every sweep must be byte-identical with either backend.
go run ./cmd/shflbench -exp all -quick -parallel 4 -enginewheel=false >/tmp/shflbench-nowheel.txt
diff /tmp/shflbench-serial.txt /tmp/shflbench-nowheel.txt
echo "no-wheel output byte-identical to timer-wheel"

echo "== differential wheel gate: randomized wheel-vs-heap pop-order equivalence"
go test -count=1 -run 'TestWheelMatchesHeapRandomized|TestEventLayout|TestThreadLayout' ./internal/sim/
go test -count=1 -run 'TestLineLayout' ./internal/memsim/

echo "== shape gate: diff against committed results_quick.txt"
diff results_quick.txt /tmp/shflbench-serial.txt
echo "output byte-identical to committed results_quick.txt"

echo "== full-fidelity gate: Figure 8 family at paper scale (no -quick)"
# One figure family runs at full fidelity on every verify: full thread
# sweep, full measurement window. Catches regressions that only appear at
# scale (quick mode trims both the sweep and the window) and pins the
# full-fidelity output byte-for-byte. Wall clock for this sweep is recorded
# in BENCH_sim.json.
go run ./cmd/shflbench -exp fig8a,fig8b -parallel 4 >/tmp/shflbench-fig8-full.txt
diff results_fig8_full.txt /tmp/shflbench-fig8-full.txt
echo "full-fidelity Figure 8 output byte-identical to committed golden"

echo "== chaos gate: fixed-seed fault injection, byte-reproducible"
go run ./cmd/locktorture -chaos -chaos-seed 42 >/tmp/chaos-a.txt
go run ./cmd/locktorture -chaos -chaos-seed 42 >/tmp/chaos-b.txt
diff /tmp/chaos-a.txt /tmp/chaos-b.txt
diff cmd/locktorture/testdata/chaos_seed42.golden /tmp/chaos-a.txt
grep -q "watchdog quiet" /tmp/chaos-a.txt
echo "chaos run byte-identical across invocations and to committed golden"

echo "== chaos gate: forced policy flips at the adversarial moments, byte-reproducible"
# PolicyFlip forces live transitions mid-shuffle, during abort reclaim, and
# at head abdication; the run must land at least one flip at each moment
# (locktorture exits nonzero otherwise), account for every acquisition
# (ops + timeouts == workers * iters: no lost wakeups), leave the queue
# clean, and replay byte-identically against its committed golden.
go run ./cmd/locktorture -chaos -chaos-seed 42 -chaos-flip >/tmp/chaos-flip-a.txt
go run ./cmd/locktorture -chaos -chaos-seed 42 -chaos-flip >/tmp/chaos-flip-b.txt
diff /tmp/chaos-flip-a.txt /tmp/chaos-flip-b.txt
diff cmd/locktorture/testdata/chaos_flip_seed42.golden /tmp/chaos-flip-a.txt
grep -q "watchdog quiet" /tmp/chaos-flip-a.txt
grep -q "policy-flips=" /tmp/chaos-flip-a.txt
grep -q "ops-accounting=ok queue=clean" /tmp/chaos-flip-a.txt
echo "policy-flip chaos run byte-identical, all three moments hit, queue certified"

echo "== chaos gate: watchdog fires on injected holder-stall deadlock"
go run ./cmd/locktorture -chaos -chaos-seed 42 -chaos-deadlock >/tmp/chaos-deadlock.txt
grep -q "chaos deadlock detected as expected" /tmp/chaos-deadlock.txt
echo "watchdog caught the deadlock and produced a post-mortem"

echo "== native abort torture: mutex with timeouts under oversubscription"
go run ./cmd/locktorture -lock mutex -threads 8 -duration 1s -abort-frac 0.3 -deadline 120s

echo "== native abort torture: goroutine-native mutex"
go run ./cmd/locktorture -lock goro -threads 8 -duration 1s -abort-frac 0.3 -deadline 120s

echo "== native abort torture: self-tuning meta-policy steering a live mutex"
# -policy auto attaches the lockstat-fed meta-policy; the run must survive
# aborts while the meta switches stages underneath the waiters, and the
# transition log must show the boot transition at minimum.
go run ./cmd/locktorture -lock mutex -policy auto -threads 8 -duration 1s -abort-frac 0.3 -deadline 120s >/tmp/torture-auto.txt
grep -q "policy transitions (auto)" /tmp/torture-auto.txt
grep -q "epoch=1" /tmp/torture-auto.txt
cat /tmp/torture-auto.txt

echo "== goroutine-scaling gate: goro survives oversubscription, artifact holds margins"
# Two layers: a short live smoke (10k goroutines with all three locks,
# then 100k with sync vs goro) with collapse-detection floors loose
# enough for 150ms-window scheduler noise, and the committed 500ms x
# 3-rep artifact checked against the real margins (goro >= 90% of
# sync.Mutex, >= 105% of the socket-grouped ShflLock, oversubscribed).
go run ./cmd/goroscale -quick
go run ./cmd/goroscale -check BENCH_goro.json

echo "== kvserve smoke gate: live server + seeded open-loop load"
# Build both binaries, start the server on a kernel-chosen loopback port,
# drive it with a short seeded kvload run, and assert the service invariants
# (ops completed, zero mutual-exclusion violations, parseable
# /debug/lockstat) plus a clean shutdown within the runtime cap.
KVDIR=$(mktemp -d /tmp/kvserve-verify.XXXXXX)
trap 'rm -rf "$KVDIR"' EXIT
go build -o "$KVDIR/" ./cmd/kvserver ./cmd/kvload
"$KVDIR/kvserver" -addr 127.0.0.1:0 -preload 20000 -port-file "$KVDIR/port" \
	-max-runtime 120s >"$KVDIR/server.log" 2>&1 &
KVPID=$!
i=0
while [ ! -s "$KVDIR/port" ]; do
	i=$((i + 1))
	if [ $i -gt 100 ]; then
		echo "FAIL: kvserver never wrote its port file" >&2
		cat "$KVDIR/server.log" >&2
		kill "$KVPID" 2>/dev/null || true
		exit 1
	fi
	sleep 0.1
done
KVADDR=$(cat "$KVDIR/port")
"$KVDIR/kvload" -url "http://$KVADDR" -keys 20000 -smoke -json "$KVDIR/smoke.json"
kill -TERM "$KVPID"
wait "$KVPID"
grep -q "bye" "$KVDIR/server.log" || {
	echo "FAIL: kvserver did not shut down cleanly" >&2
	cat "$KVDIR/server.log" >&2
	exit 1
}
echo "kvserve smoke: ops flowed, 0 violations, lockstat parsed, clean shutdown"

echo "== kvserver handover torture under -race"
go test -race -run 'TestHandoverTorture|TestSwapLockRace' ./internal/kvserver/

echo "verify.sh: ALL PASS"
