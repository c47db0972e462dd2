#!/usr/bin/env bash
# Builds spatialjoinserve, datagen and the benchmark from source into
# .bench_build/ and runs the benchmark with the given arguments. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload lookup-zipf --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/spatialjoinserve" ] || [ ! -d "$root/perfbench" ]; then
	echo "perfbench: run from the repository root (cmd/spatialjoinserve not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"
# Keep every build artefact inside the checkout, and never reach the network.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$build/bin/" ./cmd/spatialjoinserve ./cmd/datagen
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" "$@"
