#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there. Everything the go toolchain writes (build
# cache, module cache, its own configuration) is kept inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/tailbench-bench" .)
cd "$root"
exec "$build/tailbench-bench" "$@"
