#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload repair-heavy --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/ at
# the checkout root: the Go build cache, the binary, trace windows, span
# files, CPU profiles and one JSON result file per run.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=
# The go command keeps its telemetry counters under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$build/config" PPROF_TMPDIR="$build/tmp"

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -root "$root" "$@"
