#!/usr/bin/env bash
# Perf smoke: runs every perfbench workload at its tiny size (its own
# build in .bench_build/, as the benchmark runs it) and writes each
# result line to <out_dir>/perf-<workload>.out. A workload fails the
# smoke, and the script exits non-zero, on a non-zero exit or a result
# whose "correct" is not true — each run checks its outputs against the
# benchmark's references. scripts/verify.sh's perf tier and the nightly
# perf-smoke job both run this script.
#
# Usage: scripts/perf_smoke.sh [out_dir]   (relative to the repo root;
#                                           default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

out_dir="${1:-build}"
mkdir -p "$out_dir"
for workload in chain_restricted_csv star_existential_snapshot \
                decide_suite; do
  out="$out_dir/perf-$workload.out"
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 0.3 \
    --trace 0 --size tiny > "$out"
  python3 - "$out" <<'PYEOF'
import json, sys
lines = open(sys.argv[1]).read().strip().splitlines()
result = json.loads(lines[-1])
assert result["correct"] is True, f"{sys.argv[1]}: {lines[-1]}"
print(f"perf smoke: {sys.argv[1]} correct, {result['attempted']} ops")
PYEOF
done
