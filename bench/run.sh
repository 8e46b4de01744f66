#!/usr/bin/env bash
# The driver's entry point: build the benchmark from source inside the
# checkout, then run it with the arguments given. Everything the Go
# toolchain writes (build cache, work files, telemetry) is kept under
# .bench_build in the checkout, so a run touches nothing outside it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
