#!/usr/bin/env bash
# Builds perfbench from source inside the checkout and runs it from the
# repository root. Everything the build writes (binary, Go build cache,
# traces) stays under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod needed)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off
# The simulator is built with the profile cmd/shflbench ships, as users get
# it; the build fails when the profile is missing.
(cd "$root/perfbench" && go build -pgo="$root/cmd/shflbench/default.pgo" -o "$out/perfbench" .)
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$out/perfbench" --commit "$commit" "$@"
