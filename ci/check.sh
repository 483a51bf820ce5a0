#!/usr/bin/env bash
# Tier-1 gate plus sanitizer and chaos passes over the resilience suite.
#
#   ci/check.sh                   # tier-1 build + tests, sanitizers, chaos smoke
#   SKIP_SANITIZE=1 ci/check.sh   # tier-1 + chaos smoke only
#   SKIP_CHAOS=1 ci/check.sh      # skip the chaos soak binaries
#   SKIP_FUZZ=1 ci/check.sh       # skip the time-boxed fuzz smoke
#   SKIP_BENCH=1 ci/check.sh      # skip the answer bench regeneration check
set -euo pipefail
cd "$(dirname "$0")/.."

# Hard wall-clock bound for each chaos soak invocation; a hang is a
# deadlock, which is exactly what the harness exists to catch.
CHAOS_TIMEOUT="${CHAOS_TIMEOUT:-600}"
CHAOS_SEEDS="${CHAOS_SEEDS:-32}"
# Per-fuzzer time box for the mutation smoke (seconds).
FUZZ_SECONDS="${FUZZ_SECONDS:-30}"
# Each ctest pass writes every test's outcome to <build dir>/ctest-<pass>.xml
# (JUnit), so a later rerun (which rewrites Testing/Temporary/
# LastTestsFailed.log) cannot erase the name of a test that flaked here.

echo "== tier-1: configure + build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)"

echo "== tier-1: ctest =="
(cd build && ctest --output-on-failure -j "$(nproc)" \
  --output-junit ctest-tier1.xml)

if [[ "${SKIP_CHAOS:-0}" != "1" ]]; then
  echo "== chaos soak: ${CHAOS_SEEDS} fixed seeds (default build) =="
  timeout "${CHAOS_TIMEOUT}" ./build/bench/chaos_soak "${CHAOS_SEEDS}" 1

  echo "== kill-nine soak: ${CHAOS_SEEDS} fixed seeds (default build) =="
  # Fork + SIGKILL + recover against the write-ahead budget ledger; a hang
  # here is a recovery deadlock, hence the same hard wall-clock bound.
  timeout "${CHAOS_TIMEOUT}" ./build/bench/kill9_soak "${CHAOS_SEEDS}" 1

  echo "== overload soak: ${CHAOS_SEEDS} fixed seeds (default build) =="
  # Open-loop 2x-10x overload against the serve path: no congestion
  # collapse, typed fast sheds, bounded drain, no priority inversion; then
  # the cross-seed gates (median 4x and 10x goodput >= 0.7 of peak,
  # admission-shed p99 < 1ms), which sanitizer builds skip.
  timeout "${CHAOS_TIMEOUT}" ./build/bench/overload_soak "${CHAOS_SEEDS}" 1
fi

if [[ "${SKIP_BENCH:-0}" != "1" ]]; then
  echo "== answer bench: regenerate and check against committed BENCH_answer.json =="
  # The micro_benchmarks main always emits BENCH_answer.json after the
  # google-benchmark run; an impossible filter skips the BM loop so only
  # the answer-path baseline is regenerated. Schema check only — answer
  # timings are hardware-bound, but the grouped/derived/suppression
  # entries must exist in both the committed and the regenerated file.
  (cd build/bench && ./micro_benchmarks --benchmark_filter=NoSuchBench \
    > /dev/null)
  for key in '"answers"' '"mean_ns"' '"grouped_count"' \
             '"derived_avg_having"' '"derived_variance"' \
             '"suppression_pass"' '"scalar_count"' \
             '"wal_overhead"' '"publish_wal_off_ms"' '"publish_wal_on_ms"' \
             '"wal_overhead_pct"'; do
    grep -q "${key}" BENCH_answer.json ||
      { echo "committed BENCH_answer.json missing ${key}"; exit 1; }
    grep -q "${key}" build/bench/BENCH_answer.json ||
      { echo "regenerated BENCH_answer.json missing ${key}"; exit 1; }
  done
  # The committed baseline must keep the write-ahead budget ledger's
  # publish-path overhead under the 5% acceptance bar (the regenerated
  # number is hardware/jitter-bound and only schema-checked above).
  committed_wal_pct="$(grep -o '"wal_overhead_pct": -\?[0-9.]*' BENCH_answer.json | grep -o '\-\?[0-9.]*$')"
  awk -v p="${committed_wal_pct}" 'BEGIN { exit !(p < 5.0) }' ||
    { echo "committed wal_overhead_pct ${committed_wal_pct} >= 5.0"; exit 1; }
  echo "BENCH_answer.json schema ok (wal_overhead_pct ${committed_wal_pct})"
fi

if [[ "${SKIP_SANITIZE:-0}" == "1" ]]; then
  echo "== sanitizer pass skipped (SKIP_SANITIZE=1) =="
  exit 0
fi

echo "== asan+ubsan: configure + build robustness suite =="
cmake -B build-asan -S . -DVIEWREWRITE_SANITIZE=ON -DVIEWREWRITE_FUZZ=ON \
  >/dev/null
cmake --build build-asan -j "$(nproc)" --target \
  fault_injection_test quarantine_test publish_recovery_test \
  budget_test budget_wal_test mechanism_test epsilon_reconciliation_test \
  retry_test circuit_breaker_test \
  durability_test republisher_test chaos_test chaos_soak \
  kill9_test kill9_soak overload_test overload_soak \
  coalescing_test batch_submit_test stats_shard_test \
  overload_limiter_test priority_queue_test \
  limits_test adversarial_test synopsis_overflow_test hostile_bundle_test \
  admission_test corpus_replay_test \
  aggregate_planner_test suppression_test grouped_serve_test \
  cell_eval_test cell_program_test synopsis_test grouped_test \
  insensitive_test budget_allocation_test engine_test census_engine_test \
  store_roundtrip_test \
  query_server_test answer_cache_test shutdown_race_test reload_test \
  resilience_test deadline_test private_sql_test template_cache_test \
  fuzz_sql_parser fuzz_rewriter fuzz_vrsy_loader fuzz_budget_wal \
  make_seed_corpus

echo "== asan+ubsan: ctest (robustness suite) =="
(cd build-asan && ctest --output-on-failure -j "$(nproc)" \
  --output-junit ctest-asan.xml -R 'FaultInjection|Quarantine|PublishRecovery|Budget|BudgetWal|KillNine|LaplaceMechanism|IdentityStrategy|EpsilonReconciliation|Retry|Backoff|CircuitBreaker|Durability|Republisher|Limits|Tracker|CheckedMul|Adversarial|SynopsisOverflow|HostileBundle|Admission|CorpusReplay|Coalescing|BatchSubmit|StatsShard|PlanAggregate|EvaluateDerived|EvalExpr|Suppression|GroupedServe|AdaptiveLimiter|Overload|Priority|CellEval|SynopsisTest|GroupedTest|StoreRoundTrip|CellProgram|QueryServer|AnswerCache|ShutdownRace|Reload|Resilience|Deadline|PrivateSql|Template|QueryShape|Insensitive|BudgetAllocation|EngineTest|CensusEngine')

if [[ "${SKIP_CHAOS:-0}" != "1" ]]; then
  echo "== asan+ubsan: republish chaos smoke (single seed, lifecycle races) =="
  # One full seed through the republish/reload/query race under ASan+UBSan:
  # the --seed CLI replays exactly what a failing soak seed would.
  timeout "${CHAOS_TIMEOUT}" ./build-asan/tests/chaos_test --seed=5
  echo "== asan+ubsan: kill-nine smoke (single seed, crash recovery) =="
  timeout "${CHAOS_TIMEOUT}" ./build-asan/tests/kill9_test --seed=3
  echo "== asan+ubsan: overload smoke (single seed, open-loop shedding) =="
  timeout "${CHAOS_TIMEOUT}" ./build-asan/tests/overload_test --seed=2
fi

if [[ "${SKIP_FUZZ:-0}" != "1" ]]; then
  echo "== asan+ubsan: fuzz smoke (${FUZZ_SECONDS}s per boundary) =="
  ./build-asan/fuzz/make_seed_corpus build-asan/fuzz-corpus
  # The two fuzzer flavors speak different CLIs (fuzz/CMakeLists.txt
  # records which one was built): libFuzzer wants -max_total_time= and a
  # corpus dir; the standalone driver wants --mutate DIR SECONDS SEED.
  FUZZ_FLAVOR="$(cat build-asan/fuzz/fuzzer_flavor 2>/dev/null || echo standalone)"
  if [[ "${FUZZ_FLAVOR}" == "libfuzzer" ]]; then
    ./build-asan/fuzz/fuzz_sql_parser  -max_total_time="${FUZZ_SECONDS}" -seed=1 build-asan/fuzz-corpus/sql
    ./build-asan/fuzz/fuzz_rewriter    -max_total_time="${FUZZ_SECONDS}" -seed=2 build-asan/fuzz-corpus/sql
    ./build-asan/fuzz/fuzz_vrsy_loader -max_total_time="${FUZZ_SECONDS}" -seed=3 build-asan/fuzz-corpus/vrsy
    ./build-asan/fuzz/fuzz_budget_wal  -max_total_time="${FUZZ_SECONDS}" -seed=4 build-asan/fuzz-corpus/wal
  else
    ./build-asan/fuzz/fuzz_sql_parser  --mutate build-asan/fuzz-corpus/sql  "${FUZZ_SECONDS}" 1
    ./build-asan/fuzz/fuzz_rewriter    --mutate build-asan/fuzz-corpus/sql  "${FUZZ_SECONDS}" 2
    ./build-asan/fuzz/fuzz_vrsy_loader --mutate build-asan/fuzz-corpus/vrsy "${FUZZ_SECONDS}" 3
    ./build-asan/fuzz/fuzz_budget_wal  --mutate build-asan/fuzz-corpus/wal  "${FUZZ_SECONDS}" 4
  fi
  # The checked-in regressions replay through the instrumented fuzzers too
  # (the corpus_replay_test above covers them via gtest; this exercises the
  # driver's file-replay mode on the same inputs).
  find fuzz/regressions/sql fuzz/regressions/rewrite -type f \
    -exec ./build-asan/fuzz/fuzz_sql_parser {} +
  find fuzz/regressions/vrsy -type f \
    -exec ./build-asan/fuzz/fuzz_vrsy_loader {} +
  find fuzz/regressions/wal -type f \
    -exec ./build-asan/fuzz/fuzz_budget_wal {} +
fi

if [[ "${SKIP_CHAOS:-0}" != "1" ]]; then
  echo "== asan+ubsan: chaos soak (reduced seeds) =="
  timeout "${CHAOS_TIMEOUT}" ./build-asan/bench/chaos_soak 8 1
  echo "== asan+ubsan: kill-nine soak (reduced seeds) =="
  timeout "${CHAOS_TIMEOUT}" ./build-asan/bench/kill9_soak 8 1
  echo "== asan+ubsan: overload soak (reduced seeds) =="
  timeout "${CHAOS_TIMEOUT}" ./build-asan/bench/overload_soak 8 1
fi

echo "== tsan: configure + build concurrent-serve suite =="
cmake -B build-tsan -S . -DVIEWREWRITE_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$(nproc)" --target \
  query_server_test answer_cache_test shutdown_race_test reload_test \
  resilience_test deadline_test budget_test budget_wal_test \
  durability_test \
  republisher_test chaos_test chaos_soak kill9_test kill9_soak \
  overload_test overload_soak \
  coalescing_test batch_submit_test stats_shard_test \
  overload_limiter_test priority_queue_test \
  adversarial_test admission_test corpus_replay_test \
  grouped_serve_test template_cache_test cell_program_test

echo "== tsan: ctest (concurrent serving layer) =="
(cd build-tsan && ctest --output-on-failure -j "$(nproc)" \
  --output-junit ctest-tsan.xml -R 'QueryServer|AnswerCache|ShutdownRace|Reload|Resilience|Deadline|Budget|BudgetWal|KillNine|Durability|Republisher|Coalescing|BatchSubmit|StatsShard|Adversarial|Admission|CorpusReplay|GroupedServe|AdaptiveLimiter|Overload|Priority|Template|QueryShape|SharedPlan')

echo "== tsan: ordering-sensitive serve tests, each repeated until it fails (3 runs) =="
# These suites order concurrent requests around held fault points, or
# share one compiled template or cell plan across threads; a
# scheduling-dependent ordering shows up as an intermittent failure.
(cd build-tsan && ctest --output-on-failure -j "$(nproc)" \
  --repeat until-fail:3 --output-junit ctest-tsan-repeat.xml \
  -R 'Coalescing|Deadline|Resilience|Template|SharedPlan')

if [[ "${SKIP_CHAOS:-0}" != "1" ]]; then
  echo "== tsan: chaos soak (reduced seeds) =="
  timeout "${CHAOS_TIMEOUT}" ./build-tsan/bench/chaos_soak 8 1
  echo "== tsan: kill-nine soak (reduced seeds) =="
  timeout "${CHAOS_TIMEOUT}" ./build-tsan/bench/kill9_soak 8 1
  echo "== tsan: overload soak (reduced seeds) =="
  timeout "${CHAOS_TIMEOUT}" ./build-tsan/bench/overload_soak 8 1
  echo "== tsan: republish chaos smoke (single seed, lifecycle races) =="
  timeout "${CHAOS_TIMEOUT}" ./build-tsan/tests/chaos_test --seed=5
fi

echo "== all checks passed =="
