#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own under benchmark/) and runs it
# from the root of the checkout. Everything the build and the run leave
# behind stays inside the checkout, under .bench_build/ and benchmark/out/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
cd "$root"
mkdir -p .bench_build/bin .bench_build/gotmp
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/gotmp"
# The go tool keeps its env file and telemetry counters under the user's
# config directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$root/.bench_build/bin/adrias-benchmark" .
exec .bench_build/bin/adrias-benchmark "$@"
