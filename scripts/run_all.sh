#!/usr/bin/env bash
# Regenerates every paper table/figure plus the test report.
# Usage: scripts/run_all.sh [build-dir]
set -u
BUILD="${1:-build}"
REPO="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO"

ctest --test-dir "$BUILD" 2>&1 | tee test_output.txt

# Hermeticity stress: ctest runs every gtest case as its own process, so
# under -j the suites that touch files, sockets and the shared pool (store,
# net, tensor) run side by side. Five full passes at -j$(nproc) turn a shared
# path or port into a failure here rather than a rare flake later. Any failed
# pass fails the script (see the exit at the end).
STRESS_FAILED=0
{
  for pass in 1 2 3 4 5; do
    echo "stress pass $pass/5"
    ctest --test-dir "$BUILD" -j"$(nproc)" -L '^(store|net|tensor)$' --output-on-failure ||
      STRESS_FAILED=1
  done
  exit "$STRESS_FAILED"
} 2>&1 | tee stress_output.txt
STRESS_FAILED=${PIPESTATUS[0]}
echo "stress exit: $STRESS_FAILED" | tee -a stress_output.txt

# Scalar-oracle pass: the tensor, autograd and core suites again with the
# SIMD dispatch forced to the scalar table, so on an AVX2 host the oracle
# path also runs end to end (goldens, invariance suites, gradchecks). Any
# failure fails the script (see the exit at the end).
{
  QUICKDROP_SIMD=scalar "$BUILD"/tests/tensor_test &&
  QUICKDROP_SIMD=scalar "$BUILD"/tests/autograd_test &&
  QUICKDROP_SIMD=scalar "$BUILD"/tests/core_test
} 2>&1 | tee scalar_output.txt
SCALAR_FAILED=${PIPESTATUS[0]}
echo "scalar-oracle exit: $SCALAR_FAILED" | tee -a scalar_output.txt

# Static-analysis pass: qdlint (and clang-tidy when installed) runs before
# the sanitizer rebuilds — it is the cheapest gate, so it fails fastest.
scripts/lint.sh "$BUILD" 2>&1 | tee lint_output.txt
echo "lint pass exit: ${PIPESTATUS[0]}" | tee -a lint_output.txt

# SARIF artifact: the same findings in the interchange format code-review
# tooling ingests (uploaded alongside the other report files).
"$BUILD"/tools/qdlint/qdlint --root "$REPO" --cache "$BUILD/qdlint.cache" \
  --sarif qdlint_report.sarif >/dev/null
if [ -f qdlint_report.sarif ]; then
  echo "qdlint SARIF artifact: qdlint_report.sarif written" | tee -a lint_output.txt
else
  echo "qdlint SARIF artifact: MISSING qdlint_report.sarif" | tee -a lint_output.txt
fi

# Sanitizer pass: rebuild the fault-tolerance-critical suites (fl + core)
# plus the crash-safe store (engine fuzz + kill-point sweep — the recovery
# scan parses attacker-controlled bytes, exactly where UB would hide) with
# ASan/UBSan and run the binaries directly.
SAN_BUILD="${BUILD}-asan"
{
  cmake -B "$SAN_BUILD" -S . -DQUICKDROP_SANITIZE="address;undefined" &&
  cmake --build "$SAN_BUILD" -j --target fl_test core_test util_test nn_test \
    store_test store_crash_sweep_test lint_test lint_driver_test net_test &&
  "$SAN_BUILD"/tests/fl_test &&
  "$SAN_BUILD"/tests/nn_test &&
  "$SAN_BUILD"/tests/core_test &&
  "$SAN_BUILD"/tests/util_test &&
  "$SAN_BUILD"/tests/store_test &&
  "$SAN_BUILD"/tests/store_crash_sweep_test &&
  "$SAN_BUILD"/tests/lint_test &&
  "$SAN_BUILD"/tests/lint_driver_test &&
  "$SAN_BUILD"/tests/net_test
} 2>&1 | tee sanitizer_output.txt
echo "sanitizer pass exit: ${PIPESTATUS[0]}" | tee -a sanitizer_output.txt

# ThreadSanitizer pass: rebuild the suites that exercise the thread pool,
# parallel kernels, concurrent client rounds and the request service's
# parallel cycles, and run them with an oversubscribed pool so worker
# interleavings actually happen.
TSAN_BUILD="${BUILD}-tsan"
{
  cmake -B "$TSAN_BUILD" -S . -DQUICKDROP_SANITIZE="thread" &&
  cmake --build "$TSAN_BUILD" -j --target util_test tensor_test fl_test serve_test \
    net_test nn_test &&
  QUICKDROP_THREADS=4 "$TSAN_BUILD"/tests/util_test &&
  QUICKDROP_THREADS=4 "$TSAN_BUILD"/tests/tensor_test &&
  QUICKDROP_THREADS=4 "$TSAN_BUILD"/tests/nn_test &&
  QUICKDROP_THREADS=4 "$TSAN_BUILD"/tests/fl_test &&
  QUICKDROP_THREADS=4 "$TSAN_BUILD"/tests/serve_test &&
  QUICKDROP_THREADS=4 "$TSAN_BUILD"/tests/net_test
} 2>&1 | tee tsan_output.txt
echo "tsan pass exit: ${PIPESTATUS[0]}" | tee -a tsan_output.txt

# Request-service replay check: a short trained checkpoint + generated trace,
# replayed at 1 and 4 threads — the service's metrics JSON and the final
# model checkpoint must both be bitwise identical (see DESIGN.md §10).
{
  SERVE_DIR="$(mktemp -d)"
  "$BUILD"/tools/quickdrop_cli train --dataset mnist --clients 4 --rounds 5 --width 8 \
    --out "$SERVE_DIR/model.qdcp" &&
  "$BUILD"/tools/quickdrop_cli serve --checkpoint "$SERVE_DIR/model.qdcp" \
    --requests 4 --arrival-rate 10 --policy coalesce --sec-per-round 40 \
    --dump-trace "$SERVE_DIR/trace.txt" --json "$SERVE_DIR/replay1.json" \
    --out "$SERVE_DIR/served1.qdcp" --threads 1 &&
  "$BUILD"/tools/quickdrop_cli serve --checkpoint "$SERVE_DIR/model.qdcp" \
    --trace "$SERVE_DIR/trace.txt" --policy coalesce --sec-per-round 40 \
    --json "$SERVE_DIR/replay4.json" --out "$SERVE_DIR/served4.qdcp" --threads 4 &&
  cmp "$SERVE_DIR/replay1.json" "$SERVE_DIR/replay4.json" &&
  cmp "$SERVE_DIR/served1.qdcp" "$SERVE_DIR/served4.qdcp" &&
  echo "serve replay: metrics + model bitwise identical at 1 vs 4 threads" &&
  # Network front-end gate: the same trace through the loopback transport
  # (wire frames + acks + report frame) must land on the same model, and the
  # report must be identical outside the out-of-band wire/net overlay lines
  # (see DESIGN.md §15).
  "$BUILD"/tools/quickdrop_cli serve --checkpoint "$SERVE_DIR/model.qdcp" \
    --trace "$SERVE_DIR/trace.txt" --policy coalesce --sec-per-round 40 \
    --transport loopback --wire-bandwidth 1000000 \
    --json "$SERVE_DIR/loopback.json" --out "$SERVE_DIR/served_loop.qdcp" --threads 4 &&
  cmp "$SERVE_DIR/served1.qdcp" "$SERVE_DIR/served_loop.qdcp" &&
  diff <(grep -v -e '"transport"' -e '"wire_' -e '"net_' "$SERVE_DIR/replay1.json") \
       <(grep -v -e '"transport"' -e '"wire_' -e '"net_' "$SERVE_DIR/loopback.json") &&
  echo "loopback replay: model bitwise identical, report identical modulo wire overlay"
  rm -rf "$SERVE_DIR"
} 2>&1 | tee serve_replay_output.txt
echo "serve replay exit: ${PIPESTATUS[0]}" | tee -a serve_replay_output.txt

: > bench_output.txt
for b in "$BUILD"/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  echo "##### $(basename "$b") #####" | tee -a bench_output.txt
  "$b" 2>&1 | tee -a bench_output.txt
  echo | tee -a bench_output.txt
done

# Benches that write a BENCH_<name>.json into the working directory; the
# sweep above must have produced each one:
#   state_ops   (bench/ext_state_ops) flat vs per-tensor state kernels and
#               the weighted-average merge at 1/4/8 threads, DESIGN.md §11
#   micro_ops   (bench/micro_ops) kernel/autograd unit costs plus the
#               scalar-vs-SIMD dispatch columns, DESIGN.md §13
#   store       (bench/ext_store) commit/recover/vacuum throughput and
#               store-vs-blob checkpoint saves, DESIGN.md §12
#   qdlint      (bench/ext_qdlint) cold-vs-warm cache whole-tree lint at
#               1/4/8 threads, DESIGN.md §14
#   net         (bench/ext_net) wire-codec frame sizes plus the
#               loopback-vs-inproc identity verdicts, DESIGN.md §15
#   scale_shard (bench/ext_scale_shard) streaming aggregation peak memory vs
#               cohort size plus the cross-shard invariance verdict, DESIGN.md §16
for name in state_ops micro_ops store qdlint net scale_shard; do
  if [ -f "BENCH_$name.json" ]; then
    echo "${name//_/-} bench: BENCH_$name.json written" | tee -a bench_output.txt
  else
    echo "${name//_/-} bench: MISSING BENCH_$name.json" | tee -a bench_output.txt
  fi
done

# The stress and scalar-oracle steps above are gates, not reports: a failure
# in either fails the run.
[ "$STRESS_FAILED" -eq 0 ] && [ "$SCALAR_FAILED" -eq 0 ]
