#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from the checkout's
# own source (the build cache stays inside the checkout) and runs it with the
# driver's arguments. Exits non-zero without a result when the repo's source
# is not there to build against.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"
export GOCACHE="${build}/gocache" GOTOOLCHAIN=local
cd "${root}/bench"
go build -o "${build}/tapestry-bench" .
exec "${build}/tapestry-bench" "$@"
