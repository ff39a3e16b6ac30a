#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#   bash umbench/run.sh --workload stream --seed 1 --seconds 10 --trace 0
# The build cache, temporary files and the binary stay under
# .bench_build/ in the current directory; nothing is downloaded.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$here" && go build -o "$out/umbench" .)
exec "$out/umbench" "$@"
