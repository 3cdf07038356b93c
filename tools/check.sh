#!/bin/sh
# Full pre-merge check: tier-1 tests, the invariant-audit sweep, the
# segmented-engine verdicts + exact work-counter proxy, and sanitizer
# configurations.  Run from the repository root:
#
#   tools/check.sh [ubsan|asan|tsan|all|faults|perf|eval]...
#
# Modes compose: `tools/check.sh ubsan faults` runs both legs in
# order.  Default: ubsan.
#
#   ubsan|asan|tsan  tier-1 build + full tests + differential suite,
#                    then that sanitizer's smoke subset
#   all              the same, then every sanitizer sequentially (CI)
#   faults           only the fault-containment suite on the tier-1
#                    build (fast loop for DESIGN.md §13 machinery)
#   perf             only the quick perf legs on the tier-1 build: the
#                    segmented-IQ tick substage profile (64/256/512
#                    entries), a PC-sampler function table of the
#                    segmented-512 tick, the front-end cost per
#                    fetched instruction (gcc, 64 entries, every IQ
#                    design) and host throughput per queue,
#                    segmented-512 next to ideal-512
#   eval             only the full-length evaluation golden on the
#                    tier-1 build: the 8 evaluation benches without
#                    quick=1 (about 31 s at jobs=4 on 4 vCPUs) against
#                    tests/golden/evaluation_full.json
#
# On failure the EXIT trap names the leg that failed and its build dir.
set -eu

[ "$#" -gt 0 ] || set -- ubsan
for mode in "$@"; do
  case "$mode" in
    ubsan|asan|tsan|all|faults|perf|eval) ;;
    *) echo "unknown mode '$mode' (want ubsan, asan, tsan, all," \
            "faults, perf or eval)" >&2
       exit 2 ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 2)"

leg=""
leg_dir=""
on_exit() {
  rc=$?
  if [ "$rc" -ne 0 ] && [ -n "$leg" ]; then
    echo "FAILED leg: $leg (build dir: $leg_dir)" >&2
  fi
}
trap on_exit EXIT

begin_leg() {
  leg="$1"
  leg_dir="$2"
  echo "== $leg =="
}

tier1_built=""
tier1_build() {
  if [ -z "$tier1_built" ]; then
    begin_leg "tier-1 build" build
    cmake -B build -S . >/dev/null
    cmake --build build -j "$jobs"
    tier1_built=1
  fi
}

# Tier-1 tests plus the single-process differential suite; the
# precondition for every sanitizer leg, run at most once.
tier1_tested=""
tier1_full() {
  tier1_build
  if [ -n "$tier1_tested" ]; then
    return 0
  fi
  tier1_tested=1

  begin_leg "tier-1 full test suite" build
  ctest --test-dir build --output-on-failure -j "$jobs"

  begin_leg "audit sweep (all workloads, all four IQ designs, audit=1)" build
  ./build/tests/test_audit

  begin_leg "scheduling-index differential sweep (audit=1)" build
  ./build/tests/test_sched_index

  begin_leg "segmented-engine recorded verdicts + exact work-counter proxy" build
  ./build/tests/test_segmented_engine

  leg_perf

  begin_leg "bb-cache differential + warming bench (quick)" build
  ./build/tests/test_bb_cache
  ./build/bench/micro_warm quick=1 workloads=swim,twolf
}

# The quick perf legs: where the segmented tick spends its time, per
# substage and per function, the whole pipeline's host cost per fetched
# instruction on the wrong-path-heavy gcc kernel, and host throughput
# per queue configuration.
leg_perf() {
  tier1_build
  begin_leg "segmented-tick substage profile (quick)" build
  ./build/bench/micro_components \
      --benchmark_filter='BM_SegmentedTickSubstages' \
      --benchmark_min_time=0.01 json_out=/tmp/sciq-substages.json
  grep -q '"bench": "micro_components.substages"' /tmp/sciq-substages.json

  begin_leg "PC sampler on the segmented-512 tick (quick)" build
  LD_PRELOAD="$PWD/build/tools/libpc_sampler.so" \
  PC_SAMPLER_OUT=/tmp/sciq-pcs.txt \
      ./build/bench/micro_components \
      --benchmark_filter='BM_SegmentedTickSubstages/iq:512/.*/hmp_lrp:1' \
      --benchmark_min_time=1
  python3 tools/pc_symbolize.py /tmp/sciq-pcs.txt \
      > /tmp/sciq-pcs-table.txt
  cat /tmp/sciq-pcs-table.txt
  grep -q 'SegmentedIq::' /tmp/sciq-pcs-table.txt

  begin_leg "front-end cost per fetched instruction (quick)" build
  ./build/bench/micro_components \
      --benchmark_filter='BM_CoreTickGcc64' --benchmark_min_time=0.01

  begin_leg "host-throughput bench (quick)" build
  ./build/bench/bench_throughput quick=1 workloads=swim,twolf
}

# One sanitizer configuration: configure + build under build-<name>,
# then run the fast sanitize_smoke test subset.  TSAN additionally runs
# the full parallel-sweep suite and the warm-up cache and parallel-
# restore cases: determinism across worker counts is exactly what a
# data race would break.  UBSan and ASan additionally run the whole
# warm-state and fault suites.
run_sanitizer() {
  name="$1"
  flag="$2"
  begin_leg "sanitizer smoke ($name)" "build-$name"
  cmake -B "build-$name" -S . "$flag" >/dev/null
  cmake --build "build-$name" -j "$jobs"
  ctest --test-dir "build-$name" --output-on-failure -j "$jobs" \
        -L sanitize_smoke
  if [ "$name" = tsan ]; then
    begin_leg "tsan: parallel sweep + warm-state reuse" "build-$name"
    "./build-$name/tests/test_sweep"
    "./build-$name/tests/test_checkpoint" \
        --gtest_filter='CheckpointCacheTest.*:CheckpointParallelRestore.*'
  else
    # Warm states copy whole tables and memory pages whose bytes start
    # unwritten: every capture, adopt and restore runs under the memory
    # and UB checkers.
    begin_leg "$name: warm-state + fault suites" "build-$name"
    "./build-$name/tests/test_checkpoint"
    "./build-$name/tests/test_faults"
  fi
}

# The numbers EXPERIMENTS.md quotes: every evaluation bench at full
# length, compared row by row with its recorded golden.
leg_eval() {
  tier1_build
  begin_leg "full-length evaluation golden" build
  python3 tools/eval_golden.py --full --bench-dir build/bench
}

leg_faults() {
  tier1_build
  begin_leg "fault-containment suite (taxonomy, watchdog, injection)" build
  ./build/tests/test_errors
  ./build/tests/test_faults
  ./build/tests/test_sweep
}

for mode in "$@"; do
  case "$mode" in
    ubsan)
      tier1_full
      run_sanitizer ubsan -DSCIQ_UBSAN=ON ;;
    asan)
      tier1_full
      run_sanitizer asan -DSCIQ_ASAN=ON ;;
    tsan)
      tier1_full
      run_sanitizer tsan -DSCIQ_TSAN=ON ;;
    all)
      tier1_full
      run_sanitizer ubsan -DSCIQ_UBSAN=ON
      run_sanitizer asan -DSCIQ_ASAN=ON
      run_sanitizer tsan -DSCIQ_TSAN=ON ;;
    faults) leg_faults ;;
    perf) leg_perf ;;
    eval) leg_eval ;;
  esac
done

# Lint the shell tooling when shellcheck is available (CI always has
# it; skip with a notice on bare development machines).
leg="shellcheck"
leg_dir="tools"
if command -v shellcheck >/dev/null 2>&1; then
  echo "== shellcheck tools/*.sh =="
  shellcheck tools/*.sh
else
  echo "== shellcheck not installed; skipping shell lint =="
fi

leg=""
echo "== all checks passed =="
