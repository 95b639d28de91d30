#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout and runs
# it from the checkout's root. Every file Go writes (build cache, module
# cache, the binary) stays inside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$here" && go build -o "$build/dse-benchmark" .)
cd "$root"
exec "$build/dse-benchmark" "$@"
