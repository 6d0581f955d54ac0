#!/usr/bin/env bash
# Builds catbench from this checkout's sources and runs it with the given
# flags, e.g. bash bench/catbench/run.sh --workload fig8 --seed 1 --seconds 20 --trace 0
# Run it from the repository root. Every file the Go toolchain writes (build
# cache, temporary files, the binary) stays under .bench_build/ there.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C bench/catbench -o "$out/catbench" .
exec "$out/catbench" "$@"
