#!/usr/bin/env bash
# Full correctness gate for AVScope.
#
#   1. tier-1 verify: default configure + build + ctest
#      (then the fault-injection smoke by its ctest label)
#   2. avlint over the whole tree
#   3. avgraph: the static pub/sub topology contract over src/
#      (regenerates results/topology.{json,dot} and, in a git work
#      tree, fails when the committed copy differs), then the ctest
#      label 'graph'
#   4. trace stage: the ctest label 'trace' (critical-path report +
#      guarded-optimizer accept/rollback smoke over a traced drive,
#      DESIGN.md §14)
#   5. chaos stage: the ctest label 'chaos' (compound-fault campaign
#      + safety invariants + plan minimization, DESIGN.md §15)
#   6. rebuild under AddressSanitizer + UBSan with warnings as
#      errors (-DAVSCOPE_WERROR=ON), then ctest (the suite includes
#      the algorithm microbench smoke, ctest label 'micro', the
#      example smokes, label 'examples', and the cache-entry
#      mutation fuzzer, CodecFuzz.*),
#      then the transport microbench, critical-path and
#      chaos-campaign smokes under the same build
#   7. rebuild + ctest under ThreadSanitizer (the Runner's worker
#      pool and result cache run real threads; TSan proves the
#      isolation contract DESIGN.md §10 describes), the Runner and
#      InvocationMemo tests three more times (their interleavings
#      vary run to run: the drive memo, the LiDAR front end its
#      replays share and the map fill), then the same three smokes
#      again
#
# Usage: scripts/check.sh [build-dir] [asan-build-dir] [tsan-build-dir]
# Exit code is non-zero if any stage fails.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
ASAN_BUILD="${2:-$ROOT/build-asan}"
TSAN_BUILD="${3:-$ROOT/build-tsan}"

JOBS="$(nproc 2>/dev/null || echo 4)"

step() { printf '\n== %s ==\n' "$*"; }

step "tier-1: configure + build ($BUILD)"
cmake -B "$BUILD" -S "$ROOT"
cmake --build "$BUILD" -j "$JOBS"

step "tier-1: ctest"
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"

step "fault-injection smoke (ctest label 'fault')"
ctest --test-dir "$BUILD" --output-on-failure -L fault

step "avlint"
"$BUILD/tools/avlint/avlint" --root "$ROOT"

step "avgraph (static pub/sub topology contract, ctest label 'graph')"
"$BUILD/tools/avgraph/avgraph" --root "$ROOT" \
    --json "$ROOT/results/topology.json" \
    --dot "$ROOT/results/topology.dot"
# The committed topology must be the one the tree produces.
if git -C "$ROOT" rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    git -C "$ROOT" diff --exit-code -- \
        results/topology.json results/topology.dot
fi
ctest --test-dir "$BUILD" --output-on-failure -L graph

step "trace smoke (critical path + guarded optimizer, ctest label 'trace')"
ctest --test-dir "$BUILD" --output-on-failure -L trace

step "chaos smoke (compound-fault campaign + minimizer, ctest label 'chaos')"
ctest --test-dir "$BUILD" --output-on-failure -L chaos

step "sanitizers + WERROR: configure + build ($ASAN_BUILD)"
cmake -B "$ASAN_BUILD" -S "$ROOT" \
    -DAVSCOPE_SANITIZE="address;undefined" -DAVSCOPE_WERROR=ON
cmake --build "$ASAN_BUILD" -j "$JOBS"

step "sanitizers: ctest (ASan + UBSan, halt on any report)"
# The full suite includes fault_resilience.smoke (label 'fault'), so
# every fault class runs under ASan/UBSan here too, and
# micro_algorithms.smoke (label 'micro'), so every algorithm and
# probe-cost microbenchmark does, and CodecFuzz.*, so no mutated
# cache entry reads out of bounds or allocates from a bogus count.
ASAN_OPTIONS="detect_leaks=1:abort_on_error=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ctest --test-dir "$ASAN_BUILD" --output-on-failure -j "$JOBS"

step "transport microbench smoke (ASan + UBSan)"
ASAN_OPTIONS="detect_leaks=1:abort_on_error=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    "$ASAN_BUILD/bench/micro_transport" --smoke

step "critical-path smoke (ASan + UBSan)"
ASAN_OPTIONS="detect_leaks=1:abort_on_error=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    "$ASAN_BUILD/bench/critical_path" --smoke --duration 6 --no-cache

step "chaos-campaign smoke (ASan + UBSan)"
ASAN_OPTIONS="detect_leaks=1:abort_on_error=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    "$ASAN_BUILD/bench/chaos_campaign" --smoke --duration 6 --no-cache

step "sanitizers: configure + build ($TSAN_BUILD)"
cmake -B "$TSAN_BUILD" -S "$ROOT" \
    -DAVSCOPE_SANITIZE="thread"
cmake --build "$TSAN_BUILD" -j "$JOBS"

step "sanitizers: ctest (TSan, halt on any report)"
TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "$TSAN_BUILD" --output-on-failure -j "$JOBS"

step "Runner tests, repeated (TSan): drive memo, shared LiDAR front end and concurrent map fill"
TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "$TSAN_BUILD" --output-on-failure \
    -R 'Runner\.|InvocationMemo' \
    --repeat until-fail:3

step "transport microbench smoke (TSan)"
TSAN_OPTIONS="halt_on_error=1" \
    "$TSAN_BUILD/bench/micro_transport" --smoke

step "critical-path smoke (TSan)"
TSAN_OPTIONS="halt_on_error=1" \
    "$TSAN_BUILD/bench/critical_path" --smoke --duration 6 --no-cache

step "chaos-campaign smoke (TSan)"
TSAN_OPTIONS="halt_on_error=1" \
    "$TSAN_BUILD/bench/chaos_campaign" --smoke --duration 6 --no-cache

step "all checks passed"
