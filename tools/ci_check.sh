#!/usr/bin/env bash
# One-command CI gate: every layer of the static-analysis + test stack.
#
#   tools/ci_check.sh [--fast]
#
# Runs, in order (stopping at the first failure):
#   1. werror build      full tree, -Wall -Wextra -Werror
#   2. unit + bench tests ctest over the werror build — every ctest
#      gate: the fault and crash matrices (fault_matrix, crash_matrix,
#      crash_matrix_mg, crash_matrix_ckpt), the domain lint and its
#      selftest (lint_domain, lint_selftest), clang-tidy (lint_tidy),
#      and the thread-safety analysis with its fixtures (lint_tsa,
#      tsa_fixture_*; the clang-only gates SKIP where clang is not
#      installed)
#   3. tsan tier         the svc-labelled concurrency tests under
#      -fsanitize=thread (skipped where the toolchain lacks TSan)
#   4. soak SLO smoke    a short deterministic open-loop soak run whose
#      soak_slo record must repeat byte-identically and pass its
#      end-to-end p99 gate
#   5. typed-query smoke bench_typed_query — the incident scenario's
#      typed_query records must repeat byte-identically, carry the
#      schema keys, and show the typed tier reading fewer device bytes
#      than the full scan for byte-identical match sets
#   6. ubsan build+test  full tree under -fsanitize=undefined
#      (skipped with --fast)
#
# This is the command ROADMAP's tier-1 verify can grow into: a tree
# that passes ci_check.sh passes every gate a future PR is held to.
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
FAST=0
[ "${1:-}" = "--fast" ] && FAST=1

JOBS="$(nproc 2> /dev/null || echo 4)"

step() { printf '\n=== ci_check: %s ===\n' "$*"; }

step "werror build (preset: werror)"
cmake --preset werror > /dev/null
cmake --build --preset werror -j "$JOBS"

step "unit + bench tests"
ctest --test-dir build-werror --output-on-failure -j "$JOBS"

step "tsan tier (svc concurrency tests, preset: tsan)"
# Probe the toolchain the same way lint_tidy handles a missing
# clang-tidy: a graceful SKIP (exit 77 convention) where the sanitizer
# runtime is not shipped, a hard gate where it is.
if echo 'int main(){return 0;}' \
    | c++ -x c++ -fsanitize=thread -o /tmp/ci_tsan_probe.$$ - \
        > /dev/null 2>&1; then
    rm -f "/tmp/ci_tsan_probe.$$"
    cmake --preset tsan > /dev/null
    cmake --build --preset tsan -j "$JOBS" --target svc_test
    ctest --test-dir build-tsan -L svc --output-on-failure -j "$JOBS"
else
    echo "thread sanitizer unavailable: SKIPPED (77)"
fi

step "soak SLO smoke (bench_soak_slo, deterministic)"
SOAK_DIR="build-werror/soak_ci"
mkdir -p "$SOAK_DIR"
SOAK_FLAGS="--shape=bursty --duration=0.05 --seed=7 --qps=30"
# shellcheck disable=SC2086  # flags are intentionally word-split
build-werror/bench/bench_soak_slo $SOAK_FLAGS \
    --json-out="$SOAK_DIR/records_a.json" \
    --metrics-out="$SOAK_DIR/metrics.json" > /dev/null
# shellcheck disable=SC2086
build-werror/bench/bench_soak_slo $SOAK_FLAGS \
    --json-out="$SOAK_DIR/records_b.json" > /dev/null
cmp "$SOAK_DIR/records_a.json" "$SOAK_DIR/records_b.json" \
    || { echo "soak records differ across identical runs"; exit 1; }
build-werror/bench/json_check "$SOAK_DIR/metrics.json" \
    soak.ingest_e2e.sim_ps soak.query_e2e.sim_ps \
    svc.batch_apply.sim_ps journal.commit.sim_ps
build-werror/bench/json_check "$SOAK_DIR/records_a.json" \
    soak_slo ingest_e2e_p99_ps slo_pass
echo "soak SLO smoke: deterministic, schema-clean, SLO pass"

step "typed-query smoke (bench_typed_query, deterministic)"
TYPED_DIR="build-werror/typed_ci"
mkdir -p "$TYPED_DIR"
build-werror/bench/bench_typed_query \
    --json-out="$TYPED_DIR/records_a.json" \
    --metrics-out="$TYPED_DIR/metrics.json" > /dev/null
build-werror/bench/bench_typed_query \
    --json-out="$TYPED_DIR/records_b.json" > /dev/null
cmp "$TYPED_DIR/records_a.json" "$TYPED_DIR/records_b.json" \
    || { echo "typed records differ across identical runs"; exit 1; }
build-werror/bench/json_check "$TYPED_DIR/metrics.json" \
    typed.postings typed.pages_written typed.pages_read \
    typed.lookups core.typed_queries
build-werror/bench/json_check "$TYPED_DIR/records_a.json" \
    typed_query matched_lines typed_index_bytes \
    typed_device_bytes full_scan_device_bytes byte_reduction
echo "typed-query smoke: deterministic, schema-clean, bytes reduced"

if [ "$FAST" -eq 1 ]; then
    step "ubsan tier skipped (--fast)"
else
    step "ubsan build + tests (preset: ubsan)"
    cmake --preset ubsan > /dev/null
    cmake --build --preset ubsan -j "$JOBS"
    ctest --test-dir build-ubsan --output-on-failure -j "$JOBS"
fi

step "ALL GATES PASSED"
