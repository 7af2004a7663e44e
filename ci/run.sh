#!/usr/bin/env bash
#===--- ci/run.sh - Tier-1 verify plus sanitizer presets ------------------===#
#
# Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
#
# The complete CI gate, runnable locally with no arguments:
#
#   ci/run.sh            # tier-1 + TSan + UBSan + ASan (what CI runs)
#   ci/run.sh tier1      # just the plain build + ctest
#   ci/run.sh tsan       # just the -DPTRAN_SANITIZE=thread preset
#   ci/run.sh ubsan      # just the -DPTRAN_SANITIZE=undefined preset
#   ci/run.sh asan       # just the -DPTRAN_SANITIZE=address preset
#   ci/run.sh bench      # benchmark smoke (not part of "all")
#
# Each preset builds into its own directory (build-ci-*), so a CI run
# never disturbs a developer's ./build tree, and the sanitizer trees run
# the dedicated *_tsan / *_ubsan ctest entries with halt-on-error runtime
# options on top of the full suite. Every preset also runs the serve_smoke,
# recover_smoke and failover_smoke end-to-end checks (ptran-serve +
# ptran-bench-client over a scratch socket; recover_smoke kill -9s a
# --state-dir daemon at every injected crash point and byte-compares
# recovered estimates; failover_smoke pairs a primary with a --standby-of
# follower, kills the primary and promotes the standby, then sweeps the
# repl.* crash points on both sides). The recovery smokes run under
# explicit availability budgets — boot recovery and standby promotion must
# land inside the PTRAN_RECOVERY_SLO_MS / PTRAN_PROMOTE_SLO_MS wall-clock
# SLOs exported below (pre-set either variable to tighten or loosen the
# gate). Under tsan the serve_test, stream_test and repl_test concurrency
# suites rerun with halt_on_error to certify the daemon core's locking,
# the streaming ingest epoch protocol, and the shipper/standby hook
# contract; under ubsan stream_test, durable_test and repl_test rerun to
# certify the cell-index arithmetic, LE record decoding, the
# every-byte-length journal-truncation scan, and the appendRaw frame
# validator on garbled replication input. Under asan the whole suite runs
# with AddressSanitizer (plus UBSan) instrumentation, so any out-of-bounds
# access, use-after-free or leak fails the test that triggers it.
#
# Every preset also runs scaling_test, the asymptotic gate: the whole cold
# pipeline on one 20480-loop procedure under a ctest TIMEOUT that each
# preset scales by its sanitizer slowdown (30 s plain, 200 s ubsan, 400 s
# asan, 450 s tsan; tests/CMakeLists.txt). A pass that scans every node
# once per loop times it out.
#
# The bench preset builds the perfbench harness from this checkout and
# runs every workload BENCHMARK.json declares once, for a few seconds,
# untraced. It fails when the harness does not build or a run's final
# JSON line does not say "correct": true; the numbers are only reported,
# so a refactor that breaks an API the harness calls shows up in CI.
#
#===----------------------------------------------------------------------===#

set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# Recovery-time SLO budgets for the crash/failover smokes: a recovered
# daemon must be serving inside RECOVERY_SLO_MS of exec, and a standby
# must finish promotion inside PROMOTE_SLO_MS of the signal. Generous
# enough for sanitizer builds on loaded CI machines, tight enough to catch
# an accidental O(journal^2) replay or a promotion that waits on a dead
# primary.
export PTRAN_RECOVERY_SLO_MS="${PTRAN_RECOVERY_SLO_MS:-60000}"
export PTRAN_PROMOTE_SLO_MS="${PTRAN_PROMOTE_SLO_MS:-30000}"

run_preset() {
  local name="$1" sanitize="$2"
  local dir="build-ci-${name}"
  echo "=== ${name}: configure (${dir}) ==="
  local extra=()
  [ -n "${sanitize}" ] && extra+=("-DPTRAN_SANITIZE=${sanitize}")
  cmake -B "${dir}" -S . "${extra[@]}"
  echo "=== ${name}: build ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== ${name}: ctest ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
}

run_bench() {
  local workloads w out
  workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
  for w in ${workloads}; do
    echo "=== bench: ${w} ==="
    out="$(python3 perfbench/run.py --workload "${w}" --seed 1 --seconds 3 --trace 0)"
    printf '%s\n' "${out}"
    if ! printf '%s\n' "${out}" | tail -n 1 | python3 -c 'import json, sys; sys.exit(json.loads(sys.stdin.read()).get("correct") is not True)'; then
      echo "bench: ${w} did not report \"correct\": true" >&2
      exit 1
    fi
  done
}

what="${1:-all}"
case "${what}" in
tier1) run_preset tier1 "" ;;
tsan) run_preset tsan thread ;;
ubsan) run_preset ubsan undefined ;;
asan) run_preset asan address ;;
bench) run_bench ;;
all)
  run_preset tier1 ""
  run_preset tsan thread
  run_preset ubsan undefined
  run_preset asan address
  ;;
*)
  echo "usage: ci/run.sh [tier1|tsan|ubsan|asan|bench|all]" >&2
  exit 2
  ;;
esac

echo "=== ${what}: OK ==="
