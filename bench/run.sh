#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build bench/dtmperf from source into
# the checkout's .bench_build/ (Go's build cache and the go command's own
# config and telemetry directory included, so nothing is written outside the
# checkout) and run it from the checkout root.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/dtmperf" ./dtmperf
exec "$build/dtmperf" "$@"
