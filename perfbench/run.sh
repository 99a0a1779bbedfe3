#!/usr/bin/env bash
# Builds the binaries under test and the benchmark program from the
# checkout's sources, then runs it with the given arguments:
#
#	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 24 --trace 0
#
# Run it from the root of the repository. Everything it builds, caches
# and writes stays under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/gomod"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOTMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$build/bin/" ./cmd/authdns ./cmd/recursor ./cmd/ecsscan ./cmd/ecslab >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -root "$root" -bin "$build/bin" -work "$build/tmp" "$@"
