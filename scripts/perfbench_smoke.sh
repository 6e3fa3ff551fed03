#!/usr/bin/env bash
# perfbench_smoke.sh — build the benchmark (perfbench/, its own CMake
# package over src/edc) and run each workload once, briefly.
#
#   scripts/perfbench_smoke.sh
#
# One 1 s seeded run per workload untraced, plus one traced run. Each run's
# last line is the benchmark's result JSON; the script fails unless every
# one reports "correct": true and "failed": 0.
set -euo pipefail

cd "$(dirname "$0")/.."

run() {
  local last
  last=$(python3 perfbench/run.py --seed 1 --seconds 1 "$@" | tail -n 1)
  echo "$* -> $last"
  python3 -c '
import json, sys
result = json.loads(sys.argv[1])
sys.exit(0 if result.get("correct") is True and result.get("failed") == 0 else 1)
' "$last" || { echo "perfbench_smoke: $* failed its checks" >&2; return 1; }
}

for workload in paper_reference survey_fast design_service; do
  run --workload "$workload" --trace 0
done
run --workload survey_fast --trace 1
echo "perfbench_smoke: all runs correct"
