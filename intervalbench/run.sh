#!/usr/bin/env bash
# Builds the interval-pipeline benchmark from source and runs it with the
# given arguments, e.g.
#
#   bash intervalbench/run.sh --workload geant-serve --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build and the run
# leave behind goes under .bench_build/ in the current directory: the Go
# build cache, the binary and the workloads' persistence directories.
set -euo pipefail

root=$(pwd)
src="$root/intervalbench"
out="$root/.bench_build"
if [[ ! -f "$src/go.mod" ]]; then
	echo "intervalbench: run from the repository root" >&2
	exit 2
fi
if [[ ! -f "$root/go.mod" ]]; then
	echo "intervalbench: no netsamp module at $root to build against" >&2
	exit 2
fi
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config" # go's env file and telemetry counters
export GOTMPDIR="$out"
export GOTOOLCHAIN=local
export GOWORK=off
export GOPROXY=off
export GOFLAGS=-buildvcs=false

(cd "$src" && go build -trimpath -o "$out/intervalbench" .)
cd "$root"
exec "$out/intervalbench" "$@"
