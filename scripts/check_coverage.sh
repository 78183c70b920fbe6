#!/usr/bin/env bash
# Coverage gate: the packages that carry the correctness-critical logic
# (the CVOPT core, the serving layer, the physical planner and the WAL
# that crash recovery rides on) must not lose test coverage — a new
# engine (e.g. the budget autoscaler) cannot land untested. Floors sit
# at the coverage measured when each gate was last set (core 88.8%,
# serve 91.8% — the low end; racing double-checked-lock branches move
# it up to 92.4% run to run — plan 89.6%, wal 88.8%, qos 99.5%), minus
# a sliver of refactoring headroom.
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

check ./internal/core 88.5
check ./internal/serve 91.3
check ./internal/plan 89.1
check ./internal/wal 88.0
check ./internal/qos 95.0

exit "$fail"
