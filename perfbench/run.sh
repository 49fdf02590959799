#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources into .bench_build and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload point-hot --seed 1 --seconds 10 --trace 0
#
# Every build artefact, the Go build cache included, stays under
# .bench_build; a checkout without the repository's sources fails the build.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
	GOPROXY=off GOSUMDB=off
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
