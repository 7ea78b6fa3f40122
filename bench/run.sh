#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it; every argument goes
# to the program (see README.md). Nothing is read or written outside the
# checkout: the Go build cache and temporary files live in .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$build/config"
cd "$root"
go build -C bench -o "$build/snowbench" .
exec "$build/snowbench" "$@"
