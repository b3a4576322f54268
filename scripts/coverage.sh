#!/usr/bin/env bash
# Splits src/ three ways by what runs it: code the drivers run (the examples,
# every CI bench smoke, and faasm_bench --tiny with and without --trace for
# each workload), code only the tier-1 tests run, and code nothing runs.
# Prints lines and functions per src/ directory and lists the functions of
# the last two classes: the input to ROADMAP.md's keep list.
#
# Usage: scripts/coverage.sh [build-dir]    (default: build-cov)
#
# Builds twice with gcc --coverage at -O0: the repository tree (tests, benches,
# examples) and the bench/faasm_bench package, which builds its own copy of
# the libraries. Needs gcc's gcov and python3.
#
# Each driver's exit code is recorded and printed, and the counts are taken
# whatever it returns: fig8_matmul --tiny's wall-clock >=2x gate can fail at
# -O0 (the Release bench smoke in CI is the gate). A build failure stops the
# script.
set -euo pipefail

cd "$(dirname "$0")/.."
OUT="${1:-build-cov}"
MAIN="${OUT}/main"
BENCH="${OUT}/bench"
WORK="${OUT}/drivers"
FLAGS=(-DCMAKE_BUILD_TYPE=Debug "-DCMAKE_CXX_FLAGS=--coverage -O0")
JOBS="$(nproc)"

cmake -B "${MAIN}" -S . "${FLAGS[@]}" >/dev/null
cmake --build "${MAIN}" -j "${JOBS}"
cmake -B "${BENCH}" -S bench/faasm_bench "${FLAGS[@]}" >/dev/null
cmake --build "${BENCH}" -j "${JOBS}" --target faasm_bench

find "${MAIN}" "${BENCH}" -name '*.gcda' -delete
rm -rf "${WORK}"
mkdir -p "${WORK}"
MAIN="$(cd "${MAIN}" && pwd)"
BENCH="$(cd "${BENCH}" && pwd)"

STATUS=()
drive() {
  local rc=0
  echo "[coverage] driver: $*"
  (cd "${WORK}" && timeout 900 "$@" >>driver.log 2>&1) || rc=$?
  STATUS+=("$(printf '%4d  %s' "${rc}" "$*")")
}

for example in quickstart wordcount sgd_training matmul_chain inference_serving; do
  drive "${MAIN}/examples/${example}"
done
# The CI bench smoke, command for command.
B="${MAIN}/bench"
drive "${B}/tab3_coldstart" --tiny --json BENCH_coldstart.json
drive "${B}/fig8_matmul" --tiny --json BENCH_guest.json
drive "${B}/fig9_micro" --benchmark_min_time=0.01 --benchmark_filter='BM_Kernel(Native|Wasm)/0'
drive "${B}/ablation_state" --tiny --json BENCH_state.json
drive "${B}/fig10_churn" --hosts-churn --tier=sharded --tiny --json BENCH_churn.json
drive "${B}/fig9_micro" --state-batch --tiny --json BENCH_batch.json
drive "${B}/fig9_micro" --read-batch --tiny --json BENCH_read.json
drive "${B}/fig9_micro" --replica-reads --tiny --json BENCH_replica_read.json
drive "${B}/fig10_churn" --kill --replicas=2 --tiny --json BENCH_failover.json
drive "${B}/fig10_churn" --kill --detect --replicas=2 --tiny --json BENCH_detect.json
drive "${B}/fig7_inference" --tiny
drive "${B}/fig6_sgd" --small
# faasm_bench, untraced and traced: the traced run's component phase is the
# only driver of RealClock and of the one-shard ShardedKvs/KvsClient setup.
for workload in serve train matmul kv; do
  drive "${BENCH}/faasm_bench" --workload "${workload}" --seed=1 --tiny
  drive "${BENCH}/faasm_bench" --workload "${workload}" --seed=1 --tiny --trace "trace-${workload}.json"
done

python3 scripts/coverage_split.py snapshot "${OUT}/drivers.json" "${MAIN}" "${BENCH}"
find "${MAIN}" "${BENCH}" -name '*.gcda' -delete
TEST_RC=0
ctest --test-dir "${MAIN}" -j "${JOBS}" >"${OUT}/ctest.log" 2>&1 || TEST_RC=$?
python3 scripts/coverage_split.py snapshot "${OUT}/tests.json" "${MAIN}" "${BENCH}"

echo
echo "Driver exit codes (log: ${WORK}/driver.log):"
printf '%s\n' "${STATUS[@]}"
echo "ctest exit code ${TEST_RC}: $(grep -E 'tests passed' "${OUT}/ctest.log" || true)"
echo
python3 scripts/coverage_split.py report "${OUT}/drivers.json" "${OUT}/tests.json"
