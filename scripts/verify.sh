#!/usr/bin/env bash
# Repo verify flow: tier-1 build + full test suite, then the chase tests
# again under ThreadSanitizer (the parallel trigger-discovery phase is the
# only concurrency in the codebase; see docs/architecture.md §chase), then
# the governor/abort-path tests under ASan+UBSan (abort paths unwind
# partially-built state, exactly where lifetime bugs hide), then the perf
# smoke against the committed E10 baseline, then a short differential
# fuzzing campaign (see docs/fuzzing.md), then the 1M-atom EDB bulk-load
# smoke (the same gate CI's bulk-load-smoke job runs), then the run-report
# smoke: one instrumented chase run whose stats + metrics + trace-summary
# artifacts must merge into a markdown run report with the expected
# sections (the same gate CI's report-smoke job runs).
#
# Fails fast: the first failing tier stops the run and becomes the exit
# code, so callers (and CI logs) can tell tiers apart at a glance:
#
#   10  tier-1    build or full ctest suite failed
#   11  tsan      race check of the parallel discovery phase failed
#   12  asan      abort-path leak/UB check failed
#   13  perf      bench smoke failed or regressed vs BENCH_e10.json
#   14  fuzz      differential-oracle campaign found a violation
#   15  bulkload  1M-atom EDB bulk-load smoke failed
#   16  report    instrumented run or report generation failed
#    2  usage     unknown flag
#
# A summary table of tier outcomes is printed on every exit path.
#
# Usage: scripts/verify.sh [--skip-tsan] [--skip-asan] [--skip-perf]
#                          [--skip-fuzz] [--skip-bulkload] [--skip-report]
set -euo pipefail
cd "$(dirname "$0")/.."

skip_tsan=0
skip_asan=0
skip_perf=0
skip_fuzz=0
skip_bulkload=0
skip_report=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) skip_tsan=1 ;;
    --skip-asan) skip_asan=1 ;;
    --skip-perf) skip_perf=1 ;;
    --skip-fuzz) skip_fuzz=1 ;;
    --skip-bulkload) skip_bulkload=1 ;;
    --skip-report) skip_report=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

tier_names=(tier-1 tsan asan perf fuzz bulkload report)
tier_codes=(10 11 12 13 14 15 16)
declare -A tier_status
for name in "${tier_names[@]}"; do tier_status[$name]=skipped; done

print_summary() {
  echo
  echo "verify summary"
  echo "--------------------"
  for name in "${tier_names[@]}"; do
    printf '%-8s %s\n' "$name" "${tier_status[$name]}"
  done
}
trap print_summary EXIT

# run_tier <name> <function>: runs the tier, fails fast with its code.
run_tier() {
  local name="$1" fn="$2" code=0
  for i in "${!tier_names[@]}"; do
    [[ "${tier_names[$i]}" == "$name" ]] && code="${tier_codes[$i]}"
  done
  tier_status[$name]=running
  if "$fn"; then
    tier_status[$name]=ok
  else
    tier_status[$name]=FAILED
    exit "$code"
  fi
}

oom_smoke() {
  # Memory-governance smoke: a diverging chase under an 8 MiB byte budget
  # must stop with exit code 6 (kMemoryBudgetExceeded), keep its peak
  # within 10% of the budget, and still emit the full stats JSON.
  local code=0
  ./build/tools/chase_cli examples/rules/diverging_chain.dlgp \
    oblivious 100000000 --max-memory-mb=8 --stats > build/oom-stats.json ||
    code=$?
  if [[ "$code" != 6 ]]; then
    echo "oom smoke: expected exit code 6, got $code" >&2
    return 1
  fi
  python3 - <<'EOF'
import json
stats = json.load(open("build/oom-stats.json"))
budget = stats["memory"]["budget_bytes"]
peak = stats["memory"]["peak_bytes"]
assert budget == 8 * 1024 * 1024, budget
assert 0 < peak <= budget * 1.1, (peak, budget)
assert stats["rounds"], "no per-round stats in the partial result"
EOF
}

tier1() {
  # Tier 1: everything, sanitizer-free, plus the OOM degradation smoke.
  cmake --preset default &&
  cmake --build --preset default -j"$(nproc)" &&
  ctest --preset default -j"$(nproc)" &&
  oom_smoke
}

tier_tsan() {
  # Tier 2: race-check the concurrent discovery phase (now including the
  # governor's cross-thread cancellation). Only the threaded test binaries
  # are built — TSan compile+run is ~10x, and nothing else spawns threads.
  cmake --preset tsan &&
  cmake --build build-tsan -j"$(nproc)" \
    --target chase_test chase_limits_test chase_parallel_test governor_test \
             obs_test join_plan_test memory_budget_test trigger_dedup_test &&
  (cd build-tsan && ctest -j"$(nproc)" \
    -R 'ParallelDiscovery|ChaseStats|NullCap|RandomOrderSeeding|ChaseTest|ChaseLimits|Governor|Deadline|Cancellation|FaultInjection|Tracer|ObsGovernor|ThreadPool|JoinPlan|BindingSegment|PlanExecutor|MemoryBudget|InstanceBudget|ChaseMemory|Histogram|PerfCounters|Progress|TriggerKeyTable|MergedDiscovery')
}

tier_asan() {
  # Tier 3: the abort-path tests under ASan+UBSan. A run stopped by a
  # deadline, cancellation, or injected fault leaves a partial instance
  # and stats behind; this tier proves the early returns don't leak or
  # touch freed state, and that no abort path hangs (ctest enforces the
  # per-test TIMEOUT).
  cmake --preset asan &&
  cmake --build build-asan -j"$(nproc)" \
    --target governor_test egd_test chase_limits_test decider_test \
             join_plan_test memory_budget_test edb_test trigger_dedup_test &&
  (cd build-asan && ctest -j"$(nproc)" \
    -R 'Governor|Deadline|Cancellation|FaultInjection|Egd|ChaseLimits|Decider|JoinPlan|BindingSegment|PlanExecutor|MemoryBudget|InstanceBudget|ChaseMemory|BulkLoad|EdbSeed|EdbSnapshot|TriggerKeyTable|MergedDiscovery')
}

tier_perf() {
  # Tier 4 (perf smoke): run E10 and E12 on their smallest workloads in
  # the tier-1 build. This is a correctness smoke for the bench harness
  # plus a coarse perf tripwire — if a committed baseline exists, diff
  # the fresh smoke rows against it and fail on regressions of matched
  # (workload, variant, threads) rows. Smoke rows are a subset, so extra
  # baseline rows are ignored by the comparator. E12's binary also
  # asserts plan-vs-backtracking bit-identity on every row.
  cmake --build --preset default -j"$(nproc)" \
    --target bench_e10_storage_executor bench_e12_join_plans \
             bench_e13_bulk_load &&
  (cd build/bench && ./bench_e10_storage_executor --smoke --benchmark_filter=none) &&
  (cd build/bench && ./bench_e12_join_plans --smoke --benchmark_filter=none) &&
  (cd build/bench && ./bench_e13_bulk_load --smoke --benchmark_filter=none) &&
  { [[ ! -f BENCH_e10.json ]] ||
    python3 scripts/bench_compare.py BENCH_e10.json build/bench/BENCH_e10.json \
      --threshold 0.50; } &&
  { [[ ! -f BENCH_e12.json ]] ||
    python3 scripts/bench_compare.py BENCH_e12.json build/bench/BENCH_e12.json \
      --threshold 0.50; } &&
  { [[ ! -f BENCH_e13.json ]] ||
    python3 scripts/bench_compare.py BENCH_e13.json build/bench/BENCH_e13.json \
      --threshold 0.50; }
}

tier_bulkload() {
  # Tier 6 (bulk-load smoke): mirror of the CI bulk-load-smoke job. A
  # deterministic 1M-atom CSV goes through edb_gen -> chase_cli
  # --load-csv under a 4 GiB budget; the run must exit 0 and the stats
  # JSON must carry the load-phase fields (1M EDB atoms, a real byte
  # count, no budget denials). Then the same job without max_atoms: the
  # default cap (database + 10000) must stop it with exit 3 and name
  # itself on stderr.
  cmake --build --preset default -j"$(nproc)" --target chase_cli edb_gen &&
  ./build/tools/edb_gen --profile=chain --atoms=1000000 --seed=13 \
    --out=build/bulkload-smoke.csv --rules-out=build/bulkload-rules.dlgp &&
  ./build/tools/chase_cli build/bulkload-rules.dlgp restricted 100000000 \
    --load-csv=build/bulkload-smoke.csv --max-memory-mb=4096 --stats \
    > build/bulkload-stats.json &&
  python3 - <<'EOF' || return 1
import json
stats = json.load(open("build/bulkload-stats.json"))
assert stats["edb_atoms"] == 1000000, stats["edb_atoms"]
assert stats["load_bytes"] > 10_000_000, stats["load_bytes"]
assert stats["load_ms"] > 0, stats["load_ms"]
assert stats["memory"]["denials"] == 0, stats["memory"]
mb_s = stats["load_bytes"] / 1e6 / (stats["load_ms"] / 1e3)
print(f"bulk-load smoke OK: {stats['edb_atoms']} atoms in "
      f"{stats['load_ms']:.0f} ms ({mb_s:.0f} MB/s)")
EOF
  local code=0
  ./build/tools/chase_cli build/bulkload-rules.dlgp restricted \
    --load-csv=build/bulkload-smoke.csv > /dev/null \
    2> build/bulkload-default-cap.err || code=$?
  if [[ "$code" != 3 ]]; then
    echo "bulk-load smoke: default cap expected exit 3, got $code" >&2
    return 1
  fi
  grep -F "run stopped by a cap: max_atoms=1010000 (the default: 1000000 database facts + 10000); pass a larger max_atoms" \
    build/bulkload-default-cap.err
}

tier_fuzz() {
  # Tier 5 (fuzz smoke): a short deterministic differential-oracle
  # campaign. Violations are shrunk and written to tests/fuzz_corpus/,
  # ready to be committed as regression cases (fuzz_corpus_test replays
  # everything in that directory).
  cmake --build --preset default -j"$(nproc)" --target chase_fuzz &&
  ./build/tools/chase_fuzz --trials=100 --seed=1 \
    --corpus-dir=tests/fuzz_corpus --json=-
}

tier_report() {
  # Tier 7 (report smoke): one fully-instrumented run — latency
  # histograms, perf phase attribution (gracefully degraded where the
  # container has no PMU access), heartbeat, trace + flame sidecar —
  # merged by scripts/report.py into the markdown run report CI uploads
  # as an artifact. Asserts the histogram keys the profiling layer must
  # populate and validates the trace + sidecar shapes.
  cmake --build --preset default -j"$(nproc)" --target chase_cli &&
  ./build/tools/chase_cli examples/rules/company.dlgp restricted 100000 \
    --progress=200 --trace=build/report-trace.json \
    --metrics-json=build/report-metrics.json \
    --stats > build/report-stats.json &&
  python3 scripts/check_trace.py build/report-trace.json \
    --require-categories=chase,storage \
    --summary=build/report-trace.json.summary.json &&
  python3 - <<'PYEOF' &&
import json
metrics = json.load(open("build/report-metrics.json"))
hists = metrics["histograms"]
for key in ("chase.round_ns", "chase.apply_ns", "chase.discovery_ns",
            "chase.discovery_merge_ns", "chase.batch_flush_ns",
            "chase.head_check_ns"):
    assert key in hists, f"missing histogram {key}"
    assert hists[key]["count"] > 0, f"empty histogram {key}"
    for stat in ("p50", "p90", "p99", "max", "mean"):
        assert stat in hists[key], f"{key} missing {stat}"
perf = metrics["perf"]
assert "available" in perf and "phases" in perf, perf.keys()
for phase in ("discovery", "apply", "dedup_growth", "decider", "load"):
    assert phase in perf["phases"], f"missing perf phase {phase}"
print("report smoke: histograms and perf section OK "
      f"(perf available={perf['available']}, "
      f"hardware={perf.get('hardware_events')})")
PYEOF
  python3 scripts/report.py --stats=build/report-stats.json \
    --metrics=build/report-metrics.json \
    --summary=build/report-trace.json.summary.json \
    --out=build/report.md &&
  python3 - <<'PYEOF'
report = open("build/report.md").read()
for section in ("# Chase run report", "## Run summary",
                "## Latency histograms", "## Hardware counters by phase",
                "## Counters and gauges", "## Trace flame summary"):
    assert section in report, f"report missing section: {section}"
print(f"report smoke OK: build/report.md ({len(report)} bytes)")
PYEOF
}

run_tier tier-1 tier1
if [[ "$skip_tsan" == 0 ]]; then run_tier tsan tier_tsan; fi
if [[ "$skip_asan" == 0 ]]; then run_tier asan tier_asan; fi
if [[ "$skip_perf" == 0 ]]; then run_tier perf tier_perf; fi
if [[ "$skip_fuzz" == 0 ]]; then run_tier fuzz tier_fuzz; fi
if [[ "$skip_bulkload" == 0 ]]; then run_tier bulkload tier_bulkload; fi
if [[ "$skip_report" == 0 ]]; then run_tier report tier_report; fi

echo "verify: OK"
