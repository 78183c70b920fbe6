#!/usr/bin/env bash
# Builds the benchmark from source and runs it. The driver calls this from
# the root of a checkout as
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything it writes — Go's build cache, the binary, the run's temporary
# data directories, the traced run's span file — stays inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOPROXY=off
# `go build` is a no-op when the binary is already up to date
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" -workdir "$build" -outdir bench/out "$@"
