#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload profile-sweep --seed 0 --seconds 25 --trace 0
#
# The build (Go build cache included) stays inside the checkout, under
# $CARGO_TARGET_DIR when set and .bench_build otherwise, and never touches
# the network: the module needs nothing beyond the standard library.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config GOTMPDIR=$out/tmp

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
