#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# for example:
#
#   bash perfbench/run.sh --workload nu-pcap --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# traced run's spans all stay under .bench_build/ in that root; nothing
# is fetched over the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -spans "$out/spans" "$@"
