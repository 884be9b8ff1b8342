#!/usr/bin/env bash
# Builds pugzbench from source into <checkout>/.bench_build and runs it
# with the arguments given. Everything the toolchain writes (build
# cache, temporary files, its own settings) is kept inside the checkout,
# and nothing is fetched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
(
  cd "$here"
  GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
  GOPROXY=off GOTOOLCHAIN=local \
    go build -o "$build/pugzbench" .
)
exec "$build/pugzbench" -dir "$here" "$@"
