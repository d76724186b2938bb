#!/usr/bin/env bash
# Builds rtdbbench from this checkout's sources and runs it. Run from the
# repository root; every argument is passed through, e.g.
#
#   bash rtdbbench/run.sh --workload read-history --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, WAL files and span traces all live under
# .bench_build/ in the checkout (CARGO_TARGET_DIR is honoured if set).
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd rtdbbench && go build -o "$out/rtdbbench" .)
exec "$out/rtdbbench" -out "$out" "$@"
