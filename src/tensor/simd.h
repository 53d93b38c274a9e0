// Runtime-dispatched SIMD microkernels for the flat-state hot paths.
//
// Two implementations of one microkernel table: a portable hand-tiled scalar
// fallback (the *oracle*) and an AVX2 path compiled into its own translation
// unit with -mavx2 only — never -mfma, because contracting a*b+c into one
// fused operation would change result bits versus the scalar mul-then-add.
// The table is selected ONCE at startup from CPUID plus the QUICKDROP_SIMD
// environment variable and never changes mid-run.
//
// Bitwise-determinism contract (DESIGN.md §13): both paths must produce
// bit-identical results for every kernel. Elementwise kernels (axpy, scale,
// subtract, the weighted-average fold, matmul_tile4) keep each element's
// operation chain unchanged — vectorization only batches independent chains —
// so parity is structural. The tensor runs (binary_run, unary_run) are one
// IEEE-rounded add/sub/mul/div/sqrt, a sign flip or a compare-and-mask per
// element, so they too match lane for lane; gather_run and transpose only
// move bits. The reductions (sum_squares, sum_squared_diff) are
// lane-structured: four independent double accumulators over elements
// i ≡ 0..3 (mod 4), combined as ((l0 + l2) + (l1 + l3)) + tail, which is
// exactly the fold an AVX2 4x64-bit register reduction performs. The scalar
// oracle mirrors that structure, so the two paths agree bit-for-bit.
#pragma once

#include <cstdint>

namespace quickdrop::simd {

/// The arithmetic of binary_run: o = x op y, one IEEE float operation per
/// element.
enum class BinaryOp : int { kAdd, kSub, kMul, kDiv };

/// The arithmetic of unary_run. kRelu is x > 0 ? x : +0 and kGtZeroMask is
/// x > 0 ? 1 : +0 (an ordered compare, so NaN and -0 give +0); kAddScalar and
/// kMulScalar are x + s and x * s.
enum class UnaryOp : int { kNeg, kRelu, kGtZeroMask, kAddScalar, kMulScalar, kSqrt };

/// Which microkernel table to run. kAuto derives the choice from CPUID and
/// the QUICKDROP_SIMD environment variable ("off"/"scalar" forces the scalar
/// oracle; "avx2" requests AVX2 and falls back to scalar when unsupported).
enum class Dispatch : int { kAuto = 0, kScalar = 1, kAvx2 = 2 };

/// One table of microkernels. All pointers are non-null in both tables; the
/// caller owns partitioning and passes disjoint [0, n) slices.
struct Kernels {
  const char* name;

  /// y[i] += a * x[i]
  void (*axpy)(float* y, const float* x, float a, std::int64_t n);
  /// y[i] *= a
  void (*scale)(float* y, float a, std::int64_t n);
  /// o[i] = a[i] - b[i]
  void (*subtract)(float* o, const float* a, const float* b, std::int64_t n);
  /// Lane-structured sum of (double)x[i] squared (see header comment).
  double (*sum_squares)(const float* x, std::int64_t n);
  /// Lane-structured sum of ((float)(a[i] - b[i])) squared: the float
  /// difference is formed first, then widened — matches l2_norm over
  /// subtract(a, b) bit-for-bit.
  double (*sum_squared_diff)(const float* a, const float* b, std::int64_t n);
  /// acc[i] += w * (double)x[i] — one client's fold into the double
  /// accumulator of weighted_average.
  void (*wavg_fold)(double* acc, const float* x, double w, std::int64_t n);
  /// o[i] = (float)acc[i] — round the finished accumulator to float.
  void (*wavg_store)(float* o, const double* acc, std::int64_t n);
  /// acc[i] += x[i] — one pairwise combine step of the shard-tree lane merge
  /// (nn/state_accumulator.h). Pure double add, elementwise: parity is
  /// structural.
  void (*dadd)(double* acc, const double* x, std::int64_t n);
  /// o[i] = (float)(acc[i] * s) — scale the finished double accumulator and
  /// round to float in one pass (the streaming weighted-average finalize,
  /// where the weight normalizer is only known after the last fold).
  void (*dscale_store)(float* o, const double* acc, double s, std::int64_t n);
  /// c[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j], left-associated,
  /// mul-then-add (no FMA) — the blocked matmul's 4-way kk inner tile.
  void (*matmul_tile4)(float* c, float a0, float a1, float a2, float a3, const float* b0,
                       const float* b1, const float* b2, const float* b3, std::int64_t n);
  /// o[i] = x[i * x_step] op y[i * y_step] with steps (1,1), (1,0) or (0,1):
  /// a same-shape run, or a broadcast run whose other operand is one value.
  /// o may alias x or y exactly (an in-place add run).
  void (*binary_run)(BinaryOp op, float* o, const float* x, const float* y, std::int64_t n,
                     std::int64_t x_step, std::int64_t y_step);
  /// o[i] = op(x[i]), with s the scalar operand of kAddScalar/kMulScalar.
  void (*unary_run)(UnaryOp op, float* o, const float* x, float s, std::int64_t n);
  /// o[i] = x[i * step]: a fill (step 0), copy (1) or strided gather run of
  /// a broadcast or permute (pure copy).
  void (*gather_run)(float* o, const float* x, std::int64_t n, std::int64_t step);
  /// o[j * ldo + i] = x[i * ldx + j] for i < rows, j < cols: a block of a 2-D
  /// transpose (pure copy).
  void (*transpose)(float* o, std::int64_t ldo, const float* x, std::int64_t ldx,
                    std::int64_t rows, std::int64_t cols);
};

/// The hand-tiled scalar oracle. Always available.
const Kernels& scalar_kernels();

/// The AVX2 table when this binary was built with AVX2 support; the scalar
/// table otherwise. Callers gate on avx2_compiled() && avx2_supported().
const Kernels& avx2_kernels();

/// The table selected at startup (or by force_dispatch). All state/tensor
/// kernels route through this.
const Kernels& active();

/// True when the AVX2 translation unit was compiled into this binary.
bool avx2_compiled();
/// True when the running CPU reports AVX2.
bool avx2_supported();

/// Test hook: override the dispatch decision. kAuto re-derives the startup
/// choice (CPUID + QUICKDROP_SIMD). Not meant for concurrent use with
/// in-flight kernels; tests switch between whole runs.
void force_dispatch(Dispatch d);
/// The dispatch the active table was selected under.
Dispatch active_dispatch();

}  // namespace quickdrop::simd
