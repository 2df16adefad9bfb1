#!/usr/bin/env bash
# Runs two full sets side by side — every workload at ten seeds, tracing
# off — and collects the records in A/results.jsonl and B/results.jsonl.
# The two runs of a seed go back to back, and which set goes first
# alternates, because this box's speed drifts by a quarter over tens of
# minutes: two sets run one after the other would measure that drift.
#   bash benchmark/run.sh -repeat A/results.jsonl B/results.jsonl
# is then the acceptance check: every spread within its bound, no median
# worse than the other set's by more than the bound.
#
#   bash benchmark/runset.sh A B [first-seed]
set -euo pipefail
a="${1:?usage: runset.sh A B [first-seed]}"
b="${2:?usage: runset.sh A B [first-seed]}"
first="${3:-1}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"
for workload in $(sed -n 's/.*{"name": *"\([^"]*\)", *"why".*/\1/p' "$here/../BENCHMARK.json"); do
  for ((seed = first; seed < first + 10; seed++)); do
    order=("$a" "$b")
    if ((seed % 2 == 0)); then order=("$b" "$a"); fi
    for dir in "${order[@]}"; do
      bash "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 --out "$dir" >/dev/null
    done
  done
done
