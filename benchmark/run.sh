#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Everything the build writes — the go build cache, its
# temporary files and the binary — stays under .bench_build in the
# checkout, and a directory without the repository's go.mod and sources
# fails here, before any result is printed.
set -euo pipefail
mkdir -p .bench_build/gotmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/gotmp"
go build -o .bench_build/kdrbench ./benchmark
exec .bench_build/kdrbench "$@"
