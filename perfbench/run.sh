#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload kv-get-d1 --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files,
# module and telemetry state) stays under .bench_build in the checkout,
# and the toolchain never reaches the network.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS=-mod=mod GOWORK=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
