#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs one workload:
#
#   bash perfbench/run.sh --workload approx-point --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds, caches and writes
# stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/server" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/server and perfbench/ must be there)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

commit=unknown
if [[ -d "$root/.git" ]] && command -v git >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi

go build -C "$root/perfbench" -o "$out/perfbench" . >&2
exec "$out/perfbench" --workdir "$out" --commit "$commit" "$@"
