#!/usr/bin/env bash
# Builds the pipeline benchmark from the checkout it sits in and runs it
# with the given arguments, e.g.
#
#   bash pipebench/run.sh --workload live --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The build cache, the build's temporary
# files, the binary and the per-run records all go to .bench_build/ under
# the current directory.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS=
(cd "$root/pipebench" && go build -o "$build/pipebench" .) >&2
exec "$build/pipebench" --out "$build" "$@"
