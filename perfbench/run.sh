#!/usr/bin/env bash
# Builds the benchmark and the adawave-serve / adawave-router binaries from
# this checkout's sources, then runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload batch|highd|serve|all --seed N --seconds S --trace 0|1
#
# Everything it writes (Go build cache, binaries, server data, span files)
# goes under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$root/perfbench"
go build -buildvcs=false -o "$out/bin/perfbench" . >&2
go build -buildvcs=false -o "$out/bin/" adawave/cmd/adawave-serve adawave/cmd/adawave-router >&2
cd "$root"
rev="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" -commit "$rev" "$@"
