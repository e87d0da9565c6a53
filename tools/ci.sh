#!/usr/bin/env bash
# CI entry point: tier-1 build + full test suite, then an ASan+UBSan build
# of the obs and storage tests (the layers with the most concurrency and
# raw-pointer traffic), then a TSan build of the core locking and worker-pool
# tests (SS_SANITIZE=thread), then the perf-trajectory leg (CI-profile bench
# runs diffed against the committed BENCH_*.json baselines).
#
# Any test failure dumps + decodes the newest flight-recorder bundle from
# SS_FLIGHT_DIR so the events leading up to the failure land in the CI log.
#
#   tools/ci.sh [build-dir-prefix]    (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build}"

# Every store poison / fatal signal in any test process dumps its flight
# bundle here; on failure the EXIT trap decodes the newest one into the log.
export SS_FLIGHT_DIR="${PWD}/${prefix}-flight"
rm -rf "${SS_FLIGHT_DIR}"
mkdir -p "${SS_FLIGHT_DIR}"

decode_flight_on_failure() {
  local rc=$?
  if [ "${rc}" -ne 0 ] && ls "${SS_FLIGHT_DIR}"/flight-*.bin >/dev/null 2>&1; then
    echo "=== ci.sh FAILED (rc=${rc}): decoding newest flight bundle ==="
    "${prefix}/tools/sstool" flight "${SS_FLIGHT_DIR}" || true
  fi
  return "${rc}"
}
trap decode_flight_on_failure EXIT

echo "=== tier-1: configure + build + ctest (${prefix}) ==="
cmake -B "${prefix}" -S .
cmake --build "${prefix}" -j"$(nproc)"
ctest --test-dir "${prefix}" --output-on-failure -j"$(nproc)"

san_dir="${prefix}-asan"
echo "=== sanitizers: ASan+UBSan build of obs + storage + net tests (${san_dir}) ==="
cmake -B "${san_dir}" -S . -DCMAKE_BUILD_TYPE=Debug -DSS_SANITIZE=address,undefined
cmake --build "${san_dir}" -j"$(nproc)" --target \
  metrics_test trace_test flight_recorder_test \
  wal_test sstable_test lsm_store_test group_commit_test crash_recovery_test \
  lsm_concurrency_test fault_fs_test fault_injection_test \
  corruption_test serde_fuzz_test frame_fuzz_test kernels_test spacesaving_test \
  net_server_test tenant_test net_fault_test
# net_fault_test severs every frame boundary of its workload with FaultNet —
# reconnect/replay buffer churn is exactly what ASan should watch.
for t in metrics_test trace_test flight_recorder_test wal_test sstable_test \
         lsm_store_test group_commit_test crash_recovery_test lsm_concurrency_test \
         fault_fs_test corruption_test serde_fuzz_test frame_fuzz_test \
         kernels_test spacesaving_test net_server_test tenant_test net_fault_test; do
  echo "--- ${t} (asan+ubsan)"
  if [ "${t}" = crash_recovery_test ]; then
    # Simulates hard kills by deliberately leaking un-flushed stores; leak
    # detection would report exactly those, so keep ASan but mute LSan here.
    ASAN_OPTIONS=detect_leaks=0 "${san_dir}/tests/${t}"
  else
    "${san_dir}/tests/${t}"
  fi
done

echo "=== fault injection: full crash matrix under ASan (SS_FAULT_INJECT=1) ==="
# Every mutating-syscall boundary in the write/flush/compact path — including
# crashes at group-commit boundaries mid-batch — and in the sync_wal=false
# durable-ack path (stream WAL appends, the ack's fsync, the ack itself) gets
# a simulated power loss + reopen; the enlarged matrices run only in CI.
SS_FAULT_INJECT=1 "${san_dir}/tests/fault_injection_test"

echo "=== corruption matrix: byte-flip sweep under ASan (SS_FAULT_INJECT=1) ==="
# Flips bytes at every payload offset class of persisted windows and asserts
# every query either fails cleanly or returns a degraded answer whose CI
# covers the oracle truth — never a silent wrong point estimate. The full
# offset sweep runs only in CI; the dev build uses a strided subset.
SS_FAULT_INJECT=1 "${san_dir}/tests/corruption_test"

echo "=== scalar kernels: SS_FORCE_SCALAR=1 leg (dispatch fallback on AVX2 hosts) ==="
# The batch kernels must leave bit-identical sketch state on both dispatch
# targets. The tier-1 run exercised the native (AVX2 where available) path;
# this leg pins the scalar reference and re-runs the equivalence fuzz suite
# plus the sketch-math tests under ASan so the fallback stays tested.
for t in kernels_test cms_test bloom_test hyperloglog_test; do
  echo "--- ${t} (SS_FORCE_SCALAR=1)"
  SS_FORCE_SCALAR=1 "${prefix}/tests/${t}"
done
SS_FORCE_SCALAR=1 "${san_dir}/tests/kernels_test"

echo "=== server smoke: sserver on loopback + sstool --connect e2e ==="
# Boots the real daemon, drives every store subcommand over the wire, and
# asserts a clean SIGTERM drain + durable store, then a two-tenant leg (auth,
# namespace isolation, quota errors). ctest runs this too; the
# explicit leg keeps the wire path visible in the CI log.
tests/tools/sserver_smoke.sh "${prefix}/tools/sserver" "${prefix}/tools/sstool"

tsan_dir="${prefix}-tsan"
echo "=== sanitizers: TSan build of core + concurrency tests (${tsan_dir}) ==="
# group_commit_test and the batched writers in lsm_concurrency_test /
# concurrency_test exercise the leader/follower commit handoff under TSan;
# flight_recorder_test races 8 ring writers against concurrent snapshots.
cmake -B "${tsan_dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSS_SANITIZE=thread
# corruption_test rides along for its background-scrub-thread coverage.
cmake --build "${tsan_dir}" -j"$(nproc)" --target \
  thread_pool_test summary_store_test group_commit_test lsm_concurrency_test \
  concurrency_test corruption_test flight_recorder_test net_server_test \
  retry_client_test
# retry_client_test races concurrent retrying clients (including two raw
# clients sharing one session) against the server's per-session dedup map.
for t in thread_pool_test summary_store_test group_commit_test \
         lsm_concurrency_test concurrency_test corruption_test flight_recorder_test \
         net_server_test retry_client_test; do
  echo "--- ${t} (tsan)"
  TSAN_OPTIONS=halt_on_error=1 "${tsan_dir}/tests/${t}"
done

echo "=== perf trajectory: CI-profile bench runs vs committed baselines ==="
# Machine-readable bench telemetry: bench_micro (a fast subset + the
# flight-recorder overhead gate) and bench_scale (shrunk via env knobs) each
# write a BenchReport; bench_compare fails the build on direction-aware
# regressions beyond the threshold. The 75% bar only catches order-of-
# magnitude cliffs — CI machines are too noisy for anything tighter.
bench_out="${prefix}-bench"
mkdir -p "${bench_out}"
SS_BENCH_PROFILE=ci SS_BENCH_OUT="${bench_out}/BENCH_micro.json" \
  "${prefix}/bench/bench_micro" \
  --benchmark_filter='BM_StreamAppend|BM_StoreAppend$|BM_ObsCounterInc|BM_ObsScopedTimer|BM_LsmPut$|BM_Kernel' \
  --benchmark_min_time=0.05
"${prefix}/tools/bench_compare" BENCH_micro.json "${bench_out}/BENCH_micro.json" \
  --threshold-pct 75
SS_BENCH_PROFILE=ci SS_SCALE_STREAMS=8 SS_SCALE_EVENTS=50000 \
  SS_BENCH_OUT="${bench_out}/BENCH_scale.json" "${prefix}/bench/bench_scale"
"${prefix}/tools/bench_compare" BENCH_scale.json "${bench_out}/BENCH_scale.json" \
  --threshold-pct 75
# bench_net doubles as a correctness gate: it exits non-zero if backpressure
# never engages or any acked append is lost across the in-bench kill+replay.
SS_BENCH_PROFILE=ci SS_BENCH_OUT="${bench_out}/BENCH_net.json" "${prefix}/bench/bench_net"
"${prefix}/tools/bench_compare" BENCH_net.json "${bench_out}/BENCH_net.json" \
  --threshold-pct 75
echo "=== ci.sh: all green ==="
