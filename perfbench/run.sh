#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.  Run it
# from the repository root; the arguments are passed to the benchmark,
# e.g.
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 30 --trace 0
#
# Everything it writes stays under .bench_build/ in the checkout: the
# binary, the Go build cache and configuration (where the toolchain
# keeps its telemetry counters), and the temporary directories of the
# program's unix sockets.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/fdtd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (no program sources here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
# A relative TMPDIR keeps unix socket paths short whatever the
# checkout's location.
TMPDIR=.bench_build/tmp exec "$build/perfbench" "$@"
