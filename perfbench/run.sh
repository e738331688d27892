#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload est_sweep --seed 1 --seconds 35 --trace 0
#   bash perfbench/run.sh steady --runs 10
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
