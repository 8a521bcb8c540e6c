#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash perfbench/run.sh --workload sweep-local --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build/ there: the binary, the Go build cache,
# the daemon stores (removed on exit) and the traced run's spans. Build
# output goes to standard error; a failed build exits non-zero.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C "$root/perfbench" build -o "$out/perfbench.tmp" . >&2
mv "$out/perfbench.tmp" "$out/perfbench"
exec "$out/perfbench" "$@"
