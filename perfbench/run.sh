#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run it from the repository root:
#
#	bash perfbench/run.sh --workload meta-mix --seed 1 --seconds 10 --trace 0
#
# Every build product (Go build cache, binary, span dumps) goes under
# .bench_build in the current directory, so nothing is written outside it.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
