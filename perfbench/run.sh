#!/usr/bin/env bash
# Builds the benchmark from the source tree around it and runs it:
#
#   bash perfbench/run.sh --workload gsm-iss --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# temporary service stores, trace files) goes under .bench_build/ at the
# repository root, so the checkout is the only directory written.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" TMPDIR="$build/gotmp"
# The go command's module cache and its config and telemetry files
# (under the user config directory) stay inside the checkout too.
export GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
# The build uses the local toolchain, never reaches a module proxy, and
# neither edits go.mod nor asks version control for build stamps.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=readonly -buildvcs=false"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
