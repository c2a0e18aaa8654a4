#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload kv-server --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the traced run's span files go under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout, so the benchmark
# writes nothing outside it.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in the
# checkout too.
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build" "$@"
