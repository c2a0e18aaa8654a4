#!/bin/sh
# verify.sh — the repo's full verification gate, run by `make verify` and CI.
#
# Steps, in order of how fast they fail:
#   1. gofmt      — no unformatted files
#   2. go vet     — static checks
#   3. detvet     — the determinism analyzer suite (tools/detvet), both as a
#                   go vet tool (maporder, wallclock, nativesync, lockcheck,
#                   pincheck per package) and in standalone whole-program
#                   mode, which adds the cross-package statwire pass
#   4. go build   — everything compiles
#   5. go test    — full suite
#   6. race tests — the packages with real concurrency, under -race with
#                   GOMAXPROCS oversubscribed (the off-monitor diff/apply
#                   windows only interleave when the host preempts)
#   7. goldens    — the seed-regression goldens once at the default
#                   options, and once more at a 32 KiB metadata space
#                   (RFDET_METACAP), where slice GC fires during the runs
#                   and may not be visible to any deterministic observable.
#                   Plus one iteration of the
#                   slice-store churn benchmark so the epoch store's
#                   comparison against the map-store reference stays runnable
#   8. replicas   — the KV-server divergence check: k=3 replicas of one
#                   request log across optimization stacks must agree
#                   byte-for-byte (rfdet-serve exits 1 on divergence)
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> detvet (determinism analyzers, go vet mode)"
go build -o bin/detvet ./tools/detvet
go vet -vettool="$(pwd)/bin/detvet" ./...

echo "==> detvet (standalone whole-program mode: + statwire)"
go run ./tools/detvet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> race tests (GOMAXPROCS=4)"
GOMAXPROCS=4 go test -race ./internal/core/ ./internal/slicestore/ ./internal/alloc/ ./internal/kendo/

echo "==> seed goldens, and under GC pressure"
go test -count=1 -run 'TestSeedRegressionTraces|TestSeedRegressionServer' .
echo "    RFDET_METACAP=32768"
RFDET_METACAP=32768 go test -count=1 -run 'TestSeedRegressionTraces|TestSeedRegressionServer' .

echo "==> slice-store churn benchmark (1 iteration)"
go test -run=NONE -bench SliceStoreChurn -benchtime=1x ./internal/slicestore/

echo "==> replica divergence check (k=3)"
go run ./cmd/rfdet-serve -size test -threads 4 -replicas 3

echo "verify: OK"
