#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload fine-aux --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) and the traced run's span dumps stay under .bench_build/ in the
# current directory. The module replaces "repro" with the parent directory,
# so the build fails, and the script exits non-zero, outside a checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C "$(dirname "$0")" build -o "$build/e2ebench" .
exec "$build/e2ebench" "$@"
