#!/usr/bin/env bash
# Coverage gate: the packages that carry the correctness-critical logic
# (the CVOPT core, the grouping kernel in table that the planner's
# bit-exactness and every stratum id rest on, the serving layer, the
# physical planner, the ingest path that publishes the streaming
# guarantee, the WAL that crash recovery rides on, and the wire
# contract's hand codec for query answers with the typed client that
# decodes them) must not lose test coverage — a new engine (e.g. the
# budget autoscaler) cannot land untested. Floors sit at the coverage measured when each gate was last
# set — the low end of three runs: core 96.2% (re-set when the
# autoscale-probe references and the fresh-Plan race guard landed), table
# 91.3% (re-set when AssignRange's memo and its tests landed), plan
# 90.3%, ingest 83.1% (set when the strata model and the kernel landed),
# serve 91.8% (racing double-checked-lock branches move it up to 92.4%
# run to run), wal 88.8%, qos 99.5%, api/v1 97.6% and client 94.9% (both
# set when the QueryResponse codec landed) — minus half a point of
# refactoring headroom.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
check() {
    local pkg=$1 floor=$2
    local out pct
    out=$(go test -cover -count=1 "$pkg")
    pct=$(grep -o 'coverage: [0-9.]*%' <<<"$out" | grep -o '[0-9.]*' | head -1)
    if [ -z "$pct" ]; then
        echo "check_coverage: $pkg reported no coverage (output: $out)" >&2
        fail=1
        return
    fi
    if awk -v p="$pct" -v f="$floor" 'BEGIN { exit (p + 0 >= f + 0) ? 0 : 1 }'; then
        echo "check_coverage: $pkg ${pct}% (floor ${floor}%) OK"
    else
        echo "check_coverage: $pkg coverage ${pct}% fell below the ${floor}% floor" >&2
        fail=1
    fi
}

check ./internal/core 95.7
check ./internal/table 90.8
check ./internal/serve 91.3
check ./internal/plan 89.8
check ./internal/ingest 82.6
check ./internal/wal 88.0
check ./internal/qos 99.0
check ./internal/api/v1 97.1
check ./internal/client 94.4

exit "$fail"
