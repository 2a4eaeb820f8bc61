#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through:
#
#   bash bench/run.sh --workload paper-open --seed 7 --seconds 20 --trace 0
#
# The Go build cache, module cache, telemetry counters, temporary files and
# the binary stay under .bench_build/ at the checkout root, and no network
# is used.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" \
	GOENV=off GOWORK=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local

# Build output goes to stderr: the last line of stdout is the result.
(cd "$root/bench" && go build -o "$out/frostbench" .) >&2
exec "$out/frostbench" "$@"
