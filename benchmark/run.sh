#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ inside the checkout
# and runs it from the checkout root, so every file it writes (binary,
# Go build cache, scratch dirs, traces) stays under .bench_build/. The
# first build in a checkout compiles the standard library too (about
# 15 s); later ones take a tenth of a second.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/go-cache"
(cd "$here" && go build -o "$root/.bench_build/pregelix-benchmark" .)
cd "$root"
exec "$root/.bench_build/pregelix-benchmark" "$@"
