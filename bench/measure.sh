#!/usr/bin/env bash
# Runs every workload <runs> times (seeds <first-seed> .. <first-seed>+runs-1,
# the run length of BENCHMARK.json) and appends each run's record to
# <records.jsonl> — the input of `-summary` and `-compare`.
#   bash bench/measure.sh bench/out/parent.jsonl 10 1
set -euo pipefail
out=${1:?usage: measure.sh <records.jsonl> [runs] [first-seed] [trace]}
runs=${2:-10}
first=${3:-1}
trace=${4:-0}
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
mkdir -p "$(dirname "$out")"
for ((i = 0; i < runs; i++)); do
	for w in paper_build dash_sample dash_exact stream_ingest; do
		bash "$here/run.sh" --workload "$w" --seed $((first + i)) --seconds 25 --trace "$trace" --out "$out" | tail -n 1 | cut -c1-60
	done
done
