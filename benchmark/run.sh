#!/usr/bin/env bash
# Builds the benchmark harness into <checkout>/.bench_build and runs it with
# the given arguments. Everything the build and the runs write — Go's build
# cache, its temporary files and its per-user state included — stays under
# that directory.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
out="$(cd .. && pwd)/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$out/bin/benchmark" .
exec "$out/bin/benchmark" -work-dir "$out" "$@"
