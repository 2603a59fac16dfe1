#!/usr/bin/env bash
# Builds lpbench from this checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh -seed 1 -o result.json
#   bash bench/run.sh --workload flow --seed 3 --seconds 15 --trace 0
#
# Everything the build writes (the Go build cache, the toolchain's
# telemetry counters and the binary) goes to .bench_build/ in the current
# directory. Without the repository around bench/ the build fails, and so
# does this script.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C bench build -o "$out/lpbench" ./lpbench
exec "$out/lpbench" "$@"
