#!/bin/sh
# Builds the benchmark from source and runs it. Everything the build and the
# run write stays inside the checkout: the binary and the Go caches under
# .bench_build/, data directories, traces and result files under bench/out/.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$here"
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local \
		go build -o "$build/hrdb-bench" .
)
cd "$root"
exec "$build/hrdb-bench" "$@"
