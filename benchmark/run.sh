#!/usr/bin/env bash
# Builds pnnserve, pnnrouter and the benchmark from this checkout's
# sources, then runs one benchmark invocation with the given flags.
# Run it from the repository root:
#
#   bash benchmark/run.sh --workload read-cold --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/pnnserve || ! -d cmd/pnnrouter || ! -f benchmark/go.mod ]]; then
	echo "benchmark: run from the repository root; go.mod, cmd/pnnserve, cmd/pnnrouter or benchmark/go.mod is missing" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$build/bin/" ./cmd/pnnserve ./cmd/pnnrouter
(cd benchmark && go build -o "$build/bin/pnnbench" .)
exec "$build/bin/pnnbench" --bin "$build/bin" "$@"
