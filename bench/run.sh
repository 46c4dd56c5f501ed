#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# Go build cache included) and runs it with the arguments given.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
sha=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
(cd "$here" && go build -ldflags "-X main.gitSHA=$sha" -o "$build/mp5perf" .)
exec "$build/mp5perf" "$@"
