// AVX2 microkernel table. This translation unit is the ONLY one compiled
// with -mavx2 — and deliberately NOT -mfma: fusing a*b+c would change result
// bits versus the scalar oracle's mul-then-add, breaking the cross-dispatch
// bitwise contract (see simd.h and DESIGN.md §13). Every arithmetic step
// below uses explicit mul/add intrinsics in the same association order as
// the scalar oracle. The dispatch layer never selects this table unless the
// running CPU reports AVX2.
#include "tensor/simd.h"

#if defined(QUICKDROP_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

namespace quickdrop::simd {
namespace {

void axpy_avx2(float* y, const float* x, float a, std::int64_t n) {
  const __m256 av = _mm256_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    const __m256 yv = _mm256_loadu_ps(y + i);
    // qdlint: shared-write(caller passes a disjoint y[0,n) slice; this tile writes only it)
    _mm256_storeu_ps(y + i, _mm256_add_ps(yv, _mm256_mul_ps(av, xv)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void scale_avx2(float* y, float a, std::int64_t n) {
  const __m256 av = _mm256_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // qdlint: shared-write(caller passes a disjoint y[0,n) slice; this tile writes only it)
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), av));
  }
  for (; i < n; ++i) y[i] *= a;
}

void subtract_avx2(float* o, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // qdlint: shared-write(caller passes a disjoint o[0,n) slice; this tile writes only it)
    _mm256_storeu_ps(o + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] - b[i];
}

/// Reduces a 4x64-bit accumulator to ((l0 + l2) + (l1 + l3)) — the lane fold
/// the scalar oracle mirrors.
double reduce_lanes(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);        // (l0, l1)
  const __m128d hi = _mm256_extractf128_pd(acc, 1);      // (l2, l3)
  const __m128d sums = _mm_add_pd(lo, hi);               // (l0+l2, l1+l3)
  return _mm_cvtsd_f64(_mm_hadd_pd(sums, sums));         // (l0+l2) + (l1+l3)
}

double sum_squares_avx2(const float* x, std::int64_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double v = x[i];
    tail += v * v;
  }
  return reduce_lanes(acc) + tail;
}

double sum_squared_diff_avx2(const float* a, const float* b, std::int64_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Float difference first, then widen — matches the oracle and l2_norm
    // over subtract(a, b).
    const __m128 d = _mm_sub_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i));
    const __m256d v = _mm256_cvtps_pd(d);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double v = static_cast<float>(a[i] - b[i]);
    tail += v * v;
  }
  return reduce_lanes(acc) + tail;
}

void wavg_fold_avx2(double* acc, const float* x, double w, std::int64_t n) {
  const __m256d wv = _mm256_set1_pd(w);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xv = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    const __m256d av = _mm256_loadu_pd(acc + i);
    // qdlint: shared-write(caller passes a disjoint acc[0,n) scratch; this tile writes only it)
    _mm256_storeu_pd(acc + i, _mm256_add_pd(av, _mm256_mul_pd(wv, xv)));
  }
  for (; i < n; ++i) acc[i] += w * static_cast<double>(x[i]);
}

void wavg_store_avx2(float* o, const double* acc, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // _mm256_cvtpd_ps rounds to nearest-even — identical to the C cast.
    // qdlint: shared-write(caller passes a disjoint o[0,n) slice; this tile writes only it)
    _mm_storeu_ps(o + i, _mm256_cvtpd_ps(_mm256_loadu_pd(acc + i)));
  }
  for (; i < n; ++i) o[i] = static_cast<float>(acc[i]);
}

void dadd_avx2(double* acc, const double* x, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d av = _mm256_loadu_pd(acc + i);
    const __m256d xv = _mm256_loadu_pd(x + i);
    // qdlint: shared-write(caller passes a disjoint acc[0,n) slice; this tile writes only it)
    _mm256_storeu_pd(acc + i, _mm256_add_pd(av, xv));
  }
  for (; i < n; ++i) acc[i] += x[i];
}

void dscale_store_avx2(float* o, const double* acc, double s, std::int64_t n) {
  const __m256d sv = _mm256_set1_pd(s);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Double multiply then _mm256_cvtpd_ps — both round to nearest-even,
    // identical to the scalar (float)(acc[i] * s).
    // qdlint: shared-write(caller passes a disjoint o[0,n) slice; this tile writes only it)
    _mm_storeu_ps(o + i, _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_loadu_pd(acc + i), sv)));
  }
  for (; i < n; ++i) o[i] = static_cast<float>(acc[i] * s);
}

void matmul_tile4_avx2(float* c, float a0, float a1, float a2, float a3, const float* b0,
                       const float* b1, const float* b2, const float* b3, std::int64_t n) {
  const __m256 a0v = _mm256_set1_ps(a0), a1v = _mm256_set1_ps(a1);
  const __m256 a2v = _mm256_set1_ps(a2), a3v = _mm256_set1_ps(a3);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    // Same left-associated mul-then-add chain as the scalar expression
    // c[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j].
    __m256 t = _mm256_mul_ps(a0v, _mm256_loadu_ps(b0 + j));
    t = _mm256_add_ps(t, _mm256_mul_ps(a1v, _mm256_loadu_ps(b1 + j)));
    t = _mm256_add_ps(t, _mm256_mul_ps(a2v, _mm256_loadu_ps(b2 + j)));
    t = _mm256_add_ps(t, _mm256_mul_ps(a3v, _mm256_loadu_ps(b3 + j)));
    // qdlint: shared-write(caller owns this output row; the tile writes only c[0,n))
    _mm256_storeu_ps(c + j, _mm256_add_ps(_mm256_loadu_ps(c + j), t));
  }
  for (; j < n; ++j) {
    c[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
  }
}

// Tensor runs. Each op is one packed instruction per 8 lanes plus the same
// expression on the scalar tail: IEEE add/sub/mul/div/sqrt round each lane
// exactly as the scalar instruction does, the sign flip is an XOR of the sign
// bit (what scalar negation compiles to), and relu/mask are an ordered
// greater-than compare ANDed with the value, so NaN and -0 give +0 like the
// oracle's `v > 0 ? v : 0`.
struct AddOp {
  static __m256 vec(__m256 a, __m256 b) { return _mm256_add_ps(a, b); }
  static float one(float a, float b) { return a + b; }
};
struct SubOp {
  static __m256 vec(__m256 a, __m256 b) { return _mm256_sub_ps(a, b); }
  static float one(float a, float b) { return a - b; }
};
struct MulOp {
  static __m256 vec(__m256 a, __m256 b) { return _mm256_mul_ps(a, b); }
  static float one(float a, float b) { return a * b; }
};
struct DivOp {
  static __m256 vec(__m256 a, __m256 b) { return _mm256_div_ps(a, b); }
  static float one(float a, float b) { return a / b; }
};

template <typename Op>
void binary_run_with(float* o, const float* x, const float* y, std::int64_t n,
                     std::int64_t x_step, std::int64_t y_step) {
  std::int64_t i = 0;
  if (x_step != 0 && y_step != 0) {
    for (; i + 8 <= n; i += 8) {
      // qdlint: shared-write(caller passes a disjoint o[0,n) slice; this tile writes only it)
      _mm256_storeu_ps(o + i, Op::vec(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
    }
    for (; i < n; ++i) o[i] = Op::one(x[i], y[i]);
  } else if (x_step != 0) {
    const float yv = *y;
    const __m256 yb = _mm256_set1_ps(yv);
    for (; i + 8 <= n; i += 8) {
      // qdlint: shared-write(caller passes a disjoint o[0,n) slice; this tile writes only it)
      _mm256_storeu_ps(o + i, Op::vec(_mm256_loadu_ps(x + i), yb));
    }
    for (; i < n; ++i) o[i] = Op::one(x[i], yv);
  } else {
    const float xv = *x;
    const __m256 xb = _mm256_set1_ps(xv);
    for (; i + 8 <= n; i += 8) {
      // qdlint: shared-write(caller passes a disjoint o[0,n) slice; this tile writes only it)
      _mm256_storeu_ps(o + i, Op::vec(xb, _mm256_loadu_ps(y + i)));
    }
    for (; i < n; ++i) o[i] = Op::one(xv, y[i]);
  }
}

void binary_run_avx2(BinaryOp op, float* o, const float* x, const float* y, std::int64_t n,
                     std::int64_t x_step, std::int64_t y_step) {
  switch (op) {
    case BinaryOp::kAdd: return binary_run_with<AddOp>(o, x, y, n, x_step, y_step);
    case BinaryOp::kSub: return binary_run_with<SubOp>(o, x, y, n, x_step, y_step);
    case BinaryOp::kMul: return binary_run_with<MulOp>(o, x, y, n, x_step, y_step);
    case BinaryOp::kDiv: return binary_run_with<DivOp>(o, x, y, n, x_step, y_step);
  }
}

struct NegOp {
  __m256 vec(__m256 v) const { return _mm256_xor_ps(v, _mm256_set1_ps(-0.0f)); }
  float one(float v) const { return -v; }
};
struct ReluOp {
  __m256 vec(__m256 v) const {
    return _mm256_and_ps(_mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GT_OQ), v);
  }
  float one(float v) const { return v > 0.0f ? v : 0.0f; }
};
struct GtZeroMaskOp {
  __m256 vec(__m256 v) const {
    return _mm256_and_ps(_mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GT_OQ),
                         _mm256_set1_ps(1.0f));
  }
  float one(float v) const { return v > 0.0f ? 1.0f : 0.0f; }
};
struct AddScalarOp {
  float s;
  __m256 vec(__m256 v) const { return _mm256_add_ps(v, _mm256_set1_ps(s)); }
  float one(float v) const { return v + s; }
};
struct MulScalarOp {
  float s;
  __m256 vec(__m256 v) const { return _mm256_mul_ps(v, _mm256_set1_ps(s)); }
  float one(float v) const { return v * s; }
};
struct SqrtOp {
  __m256 vec(__m256 v) const { return _mm256_sqrt_ps(v); }
  // The scalar sqrtss, without <cmath>: an inline library function built
  // with -mavx2 here could be the copy the linker keeps for baseline callers.
  float one(float v) const { return _mm_cvtss_f32(_mm_sqrt_ss(_mm_set_ss(v))); }
};

template <typename Op>
void unary_run_with(Op op, float* o, const float* x, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // qdlint: shared-write(caller passes a disjoint o[0,n) slice; this tile writes only it)
    _mm256_storeu_ps(o + i, op.vec(_mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) o[i] = op.one(x[i]);
}

void unary_run_avx2(UnaryOp op, float* o, const float* x, float s, std::int64_t n) {
  switch (op) {
    case UnaryOp::kNeg: return unary_run_with(NegOp{}, o, x, n);
    case UnaryOp::kRelu: return unary_run_with(ReluOp{}, o, x, n);
    case UnaryOp::kGtZeroMask: return unary_run_with(GtZeroMaskOp{}, o, x, n);
    case UnaryOp::kAddScalar: return unary_run_with(AddScalarOp{s}, o, x, n);
    case UnaryOp::kMulScalar: return unary_run_with(MulScalarOp{s}, o, x, n);
    case UnaryOp::kSqrt: return unary_run_with(SqrtOp{}, o, x, n);
  }
}

void gather_run_avx2(float* o, const float* x, std::int64_t n, std::int64_t step) {
  std::int64_t i = 0;
  if (step == 0) {
    const __m256 v = _mm256_set1_ps(*x);
    for (; i + 8 <= n; i += 8) {
      // qdlint: shared-write(caller passes a disjoint o[0,n) slice; this tile writes only it)
      _mm256_storeu_ps(o + i, v);
    }
  } else if (step == 1) {
    for (; i + 8 <= n; i += 8) {
      // qdlint: shared-write(caller passes a disjoint o[0,n) slice; this tile writes only it)
      _mm256_storeu_ps(o + i, _mm256_loadu_ps(x + i));
    }
  }
  for (; i < n; ++i) o[i] = x[i * step];
}

/// Transposes the 8x8 block held in r[0..7] (row i in r[i]) in place:
/// unpack, shuffle and lane-permute moves, no arithmetic.
void transpose8(__m256 r[8]) {
  __m256 t[8];
  for (int i = 0; i < 8; i += 2) {
    t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
    t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
  }
  __m256 s[8];
  for (int i = 0; i < 8; i += 4) {
    s[i] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(1, 0, 1, 0));
    s[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(3, 2, 3, 2));
    s[i + 2] = _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(1, 0, 1, 0));
    s[i + 3] = _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  for (int j = 0; j < 4; ++j) {
    r[j] = _mm256_permute2f128_ps(s[j], s[j + 4], 0x20);
    r[j + 4] = _mm256_permute2f128_ps(s[j], s[j + 4], 0x31);
  }
}

void transpose_avx2(float* o, std::int64_t ldo, const float* x, std::int64_t ldx,
                    std::int64_t rows, std::int64_t cols) {
  std::int64_t j = 0;
  for (; j + 8 <= cols; j += 8) {
    std::int64_t i = 0;
    for (; i + 8 <= rows; i += 8) {
      __m256 r[8];
      for (int k = 0; k < 8; ++k) r[k] = _mm256_loadu_ps(x + (i + k) * ldx + j);
      transpose8(r);
      for (int k = 0; k < 8; ++k) {
        // qdlint: shared-write(caller owns output rows [0,cols); the tile writes only them)
        _mm256_storeu_ps(o + (j + k) * ldo + i, r[k]);
      }
    }
    for (; i < rows; ++i) {
      for (std::int64_t jj = j; jj < j + 8; ++jj) o[jj * ldo + i] = x[i * ldx + jj];
    }
  }
  for (; j < cols; ++j) {
    for (std::int64_t i = 0; i < rows; ++i) o[j * ldo + i] = x[i * ldx + j];
  }
}

constexpr Kernels kAvx2Kernels = {
    "avx2",          axpy_avx2,      scale_avx2,      subtract_avx2,
    sum_squares_avx2, sum_squared_diff_avx2, wavg_fold_avx2, wavg_store_avx2,
    dadd_avx2,       dscale_store_avx2,
    matmul_tile4_avx2, binary_run_avx2, unary_run_avx2,
    gather_run_avx2, transpose_avx2,
};

}  // namespace

bool avx2_compiled() { return true; }
const Kernels& avx2_kernels() { return kAvx2Kernels; }

}  // namespace quickdrop::simd

#else  // !QUICKDROP_HAVE_AVX2

namespace quickdrop::simd {

bool avx2_compiled() { return false; }
const Kernels& avx2_kernels() { return scalar_kernels(); }

}  // namespace quickdrop::simd

#endif
