#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given flags, e.g.
#   bash perfbench/run.sh --workload tail --seed 1 --seconds 20 --trace 0
# Run from the repository root. The build cache, the binary and every
# temporary file stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
