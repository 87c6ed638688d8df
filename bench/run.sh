#!/usr/bin/env bash
# The benchmark's single entry point: build the binary once, then run it.
#
#   bash bench/run.sh                      all four workloads, then the traced pass
#   bash bench/run.sh --workload fleet_vclock --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind lands in bench/out/
# (git-ignored), the build cache included (dot-named, so ./... skips it), so
# a run reads and writes only inside its checkout. GOMAXPROCS and GOGC are
# pinned per child by the binary itself.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p bench/out
export GOCACHE="$PWD/bench/out/.gocache" GOPATH="$PWD/bench/out/.gopath" GOFLAGS=-buildvcs=false
go build -o bench/out/senseiperf ./bench
exec bench/out/senseiperf "$@"
