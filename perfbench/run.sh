#!/usr/bin/env bash
# Builds the benchmark and the daemons it drives (cmd/ised,
# cmd/isedfleet) from this checkout's source, then runs the benchmark
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload lp-miss --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and span dumps all stay under
# .bench_build/ in the repository root.
set -euo pipefail
out=$PWD/.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" . >&2
go build -o "$out/ised" ./cmd/ised >&2
go build -o "$out/isedfleet" ./cmd/isedfleet >&2
exec "$out/perfbench" -bin "$out" -out "$out" "$@"
