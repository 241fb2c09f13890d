#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# Everything the go tool writes (build cache, telemetry, module cache)
# is kept under .bench_build/ so a run touches nothing outside the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$root/bench" && go build -o "$build/spinbench" .) >&2
cd "$root"
exec "$build/spinbench" "$@"
