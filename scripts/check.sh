#!/usr/bin/env bash
# One-shot local gate mirroring the CI lint, test and coverage jobs, in
# CI order: format, vet, pnnvet, build, tests under the coverage floor
# (root module, then the benchmark module). `make check` wraps it;
# CHECK_RACE=1 adds the CI race job: the full-matrix race pass plus a
# 20-repeat race stress of the batcher tests and a 10-repeat one of the
# dynamic layer's tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
  echo "FAIL: gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== go vet"
go vet ./...

echo "== pnnvet (project invariants)"
go run ./cmd/pnnvet ./...

if command -v shellcheck >/dev/null 2>&1; then
  echo "== shellcheck"
  shellcheck scripts/*.sh
else
  echo "== shellcheck (skipped: not installed)"
fi

echo "== build"
go build ./...

echo "== tests + coverage floor"
./scripts/coverage.sh

echo "== benchmark module (vet + tests)"
(cd benchmark && go vet ./... && go test ./...)

if [ "${CHECK_RACE:-0}" = "1" ]; then
  echo "== race (full matrix)"
  go test -race ./...
  echo "== race stress (batcher, 20 repeats)"
  go test -race -count=20 -run '^TestBatcher' ./server/
  echo "== race stress (dynamic layer, 10 repeats)"
  go test -race -count=10 -run '^TestDynamic' .
fi

echo "PASS: all checks"
