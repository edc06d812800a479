#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on, e.g.
#   bash perfbench/run.sh --workload ycsb-timing --seed 1 --seconds 30 --trace 0
# The build and the Go build cache stay inside the checkout, under
# .bench_build, and no toolchain or module is downloaded.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
# The go command keeps its settings and telemetry under the user config
# directory; point that inside the checkout too.
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
