// SIMD-vs-scalar bitwise parity for the dispatched microkernels (DESIGN.md
// §13): the scalar table is the oracle; the AVX2 table must reproduce every
// result bit-for-bit, including reduction lane structure and tail handling.
// Also covers the dispatch plumbing itself and the matmul path end-to-end.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace {

using quickdrop::Tensor;
using quickdrop::simd::Dispatch;
using quickdrop::simd::Kernels;

/// Deterministic pseudo-values with varied magnitudes and signs.
float synth_value(std::int64_t i, float phase) {
  const float base = 0.001f * static_cast<float>((i * 2654435761LL) % 2003) - 1.0f;
  const float magnitude = static_cast<float>(1 + (i % 5)) * 0.37f;
  return base * magnitude + phase;
}

std::vector<float> synth_buffer(std::int64_t n, float phase) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = synth_value(i, phase);
  return v;
}

void expect_bitwise_equal(const std::vector<float>& a, const std::vector<float>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]), std::bit_cast<std::uint32_t>(b[i]))
        << what << " diverges at index " << i;
  }
}

void expect_bitwise_equal(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b)) << what;
}

bool avx2_usable() {
  return quickdrop::simd::avx2_compiled() && quickdrop::simd::avx2_supported();
}

/// Restores auto dispatch when a test returns.
struct DispatchScope {
  explicit DispatchScope(Dispatch d) { quickdrop::simd::force_dispatch(d); }
  ~DispatchScope() { quickdrop::simd::force_dispatch(Dispatch::kAuto); }
};

/// Restores the ambient thread count when a test returns.
struct PoolScope {
  explicit PoolScope(int threads) : saved(quickdrop::num_threads()) {
    quickdrop::set_num_threads(threads);
  }
  ~PoolScope() { quickdrop::set_num_threads(saved); }
  int saved;
};

// Sizes exercising empty input, sub-lane tails, exact lane multiples and
// large buffers with a tail.
const std::int64_t kSizes[] = {0, 1, 3, 4, 7, 8, 9, 31, 64, 1000, 1003, 4096, 5001};

// ---------------------------------------------------------------------------
// Microkernel parity: scalar table vs AVX2 table, same inputs, same bits.
// ---------------------------------------------------------------------------

TEST(SimdParity, ElementwiseKernelsMatchBitwise) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 not available";
  const Kernels& s = quickdrop::simd::scalar_kernels();
  const Kernels& v = quickdrop::simd::avx2_kernels();
  for (const std::int64_t n : kSizes) {
    const auto x = synth_buffer(n, 0.25f);
    const auto base = synth_buffer(n, -0.5f);

    auto ys = base, yv = base;
    s.axpy(ys.data(), x.data(), 0.3125f, n);
    v.axpy(yv.data(), x.data(), 0.3125f, n);
    expect_bitwise_equal(ys, yv, "axpy");

    ys = base;
    yv = base;
    s.scale(ys.data(), 0.731f, n);
    v.scale(yv.data(), 0.731f, n);
    expect_bitwise_equal(ys, yv, "scale");

    std::vector<float> os(static_cast<std::size_t>(n)), ov(static_cast<std::size_t>(n));
    s.subtract(os.data(), x.data(), base.data(), n);
    v.subtract(ov.data(), x.data(), base.data(), n);
    expect_bitwise_equal(os, ov, "subtract");
  }
}

TEST(SimdParity, ReductionsMatchBitwise) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 not available";
  const Kernels& s = quickdrop::simd::scalar_kernels();
  const Kernels& v = quickdrop::simd::avx2_kernels();
  for (const std::int64_t n : kSizes) {
    const auto x = synth_buffer(n, 0.125f);
    const auto y = synth_buffer(n, -0.375f);
    expect_bitwise_equal(s.sum_squares(x.data(), n), v.sum_squares(x.data(), n), "sum_squares");
    expect_bitwise_equal(s.sum_squared_diff(x.data(), y.data(), n),
                         v.sum_squared_diff(x.data(), y.data(), n), "sum_squared_diff");
  }
}

TEST(SimdParity, WeightedAverageFoldMatchesBitwise) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 not available";
  const Kernels& s = quickdrop::simd::scalar_kernels();
  const Kernels& v = quickdrop::simd::avx2_kernels();
  for (const std::int64_t n : kSizes) {
    const auto x0 = synth_buffer(n, 0.0f);
    const auto x1 = synth_buffer(n, 0.625f);
    std::vector<double> as(static_cast<std::size_t>(n), 0.0);
    std::vector<double> av(static_cast<std::size_t>(n), 0.0);
    // Two folds in the same order, like two clients of weighted_average.
    s.wavg_fold(as.data(), x0.data(), 0.312, n);
    s.wavg_fold(as.data(), x1.data(), 0.00071, n);
    v.wavg_fold(av.data(), x0.data(), 0.312, n);
    v.wavg_fold(av.data(), x1.data(), 0.00071, n);
    for (std::int64_t i = 0; i < n; ++i) {
      const auto u = static_cast<std::size_t>(i);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(as[u]), std::bit_cast<std::uint64_t>(av[u]))
          << "wavg_fold diverges at " << i;
    }
    std::vector<float> outs(static_cast<std::size_t>(n)), outv(static_cast<std::size_t>(n));
    s.wavg_store(outs.data(), as.data(), n);
    v.wavg_store(outv.data(), av.data(), n);
    expect_bitwise_equal(outs, outv, "wavg_store");
  }
}

TEST(SimdParity, MatmulTileMatchesBitwise) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 not available";
  const Kernels& s = quickdrop::simd::scalar_kernels();
  const Kernels& v = quickdrop::simd::avx2_kernels();
  for (const std::int64_t n : kSizes) {
    const auto b0 = synth_buffer(n, 0.1f), b1 = synth_buffer(n, 0.2f);
    const auto b2 = synth_buffer(n, 0.3f), b3 = synth_buffer(n, 0.4f);
    auto cs = synth_buffer(n, -1.0f);
    auto cv = cs;
    s.matmul_tile4(cs.data(), 0.17f, -0.61f, 1.13f, 0.029f, b0.data(), b1.data(), b2.data(),
                   b3.data(), n);
    v.matmul_tile4(cv.data(), 0.17f, -0.61f, 1.13f, 0.029f, b0.data(), b1.data(), b2.data(),
                   b3.data(), n);
    expect_bitwise_equal(cs, cv, "matmul_tile4");
  }
}

// Tensor runs: every op x step pattern x n = 0..67, over values that mix
// NaN, +-inf, +-0, denormals and ordinary numbers. The one NaN used is x86's
// default NaN, the one inf - inf and sqrt(-1) produce, so a NaN + NaN has a
// single answer whichever operand order the compiler emits.
std::vector<float> special_buffer(std::int64_t n, float phase) {
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            0.0f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -1e-39f,
                            std::numeric_limits<float>::min(),
                            std::numeric_limits<float>::max()};
  auto v = synth_buffer(n, phase);
  for (std::int64_t i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>((i * 7 + static_cast<std::int64_t>(phase * 4)) % 13);
    if (k < std::size(specials)) v[static_cast<std::size_t>(i)] = specials[k];
  }
  return v;
}

void expect_same_bytes(const std::vector<float>& a, const std::vector<float>& b,
                       const std::string& what) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0) << what;
}

TEST(SimdParity, BinaryRunsMatchBitwise) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 not available";
  using quickdrop::simd::BinaryOp;
  const Kernels& s = quickdrop::simd::scalar_kernels();
  const Kernels& v = quickdrop::simd::avx2_kernels();
  const std::pair<std::int64_t, std::int64_t> steps[] = {{1, 1}, {1, 0}, {0, 1}};
  for (const BinaryOp op : {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul, BinaryOp::kDiv}) {
    for (const auto& [x_step, y_step] : steps) {
      for (std::int64_t n = 0; n <= 67; ++n) {
        const auto x = special_buffer(n + 1, 0.25f);
        const auto y = special_buffer(n + 1, 1.5f);
        // The broadcast operand takes every value of its buffer in turn.
        const std::int64_t scalars = x_step == 1 && y_step == 1 ? 1 : n + 1;
        for (std::int64_t j = 0; j < scalars; ++j) {
          const float* xp = x.data() + (x_step == 0 ? j : 0);
          const float* yp = y.data() + (y_step == 0 ? j : 0);
          std::vector<float> os(static_cast<std::size_t>(n)), ov(static_cast<std::size_t>(n));
          s.binary_run(op, os.data(), xp, yp, n, x_step, y_step);
          v.binary_run(op, ov.data(), xp, yp, n, x_step, y_step);
          expect_same_bytes(os, ov,
                            "binary_run op " + std::to_string(static_cast<int>(op)) + " steps " +
                                std::to_string(x_step) + std::to_string(y_step) + " n " +
                                std::to_string(n) + " scalar #" + std::to_string(j));
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  // In place: o aliases x, as col2im's add runs do.
  for (std::int64_t n = 0; n <= 67; ++n) {
    auto as = special_buffer(n, 0.5f);
    auto av = as;
    const auto y = special_buffer(n, 2.0f);
    s.binary_run(BinaryOp::kAdd, as.data(), as.data(), y.data(), n, 1, 1);
    v.binary_run(BinaryOp::kAdd, av.data(), av.data(), y.data(), n, 1, 1);
    expect_same_bytes(as, av, "in-place add n " + std::to_string(n));
  }
}

TEST(SimdParity, UnaryRunsMatchBitwise) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 not available";
  using quickdrop::simd::UnaryOp;
  const Kernels& s = quickdrop::simd::scalar_kernels();
  const Kernels& v = quickdrop::simd::avx2_kernels();
  const float scalars[] = {0.375f, -1.5f, -0.0f, std::numeric_limits<float>::infinity(),
                           std::numeric_limits<float>::denorm_min()};
  for (const UnaryOp op : {UnaryOp::kNeg, UnaryOp::kRelu, UnaryOp::kGtZeroMask,
                           UnaryOp::kAddScalar, UnaryOp::kMulScalar, UnaryOp::kSqrt}) {
    for (const float sc : scalars) {
      for (std::int64_t n = 0; n <= 67; ++n) {
        const auto x = special_buffer(n, 0.75f);
        std::vector<float> os(static_cast<std::size_t>(n)), ov(static_cast<std::size_t>(n));
        s.unary_run(op, os.data(), x.data(), sc, n);
        v.unary_run(op, ov.data(), x.data(), sc, n);
        expect_same_bytes(os, ov, "unary_run op " + std::to_string(static_cast<int>(op)) +
                                      " n " + std::to_string(n));
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(SimdParity, ReluAndMaskKeepTheirBits) {
  // relu(NaN) = relu(-0) = +0 and the mask is +0 there too, in both tables.
  const float in[] = {std::numeric_limits<float>::quiet_NaN(), -0.0f, 0.0f, -2.0f, 3.0f,
                      -std::numeric_limits<float>::quiet_NaN(), -1e-40f, 1e-40f};
  const float relu[] = {0.0f, 0.0f, 0.0f, 0.0f, 3.0f, 0.0f, 0.0f, 1e-40f};
  const float mask[] = {0.0f, 0.0f, 0.0f, 0.0f, 1.0f, 0.0f, 0.0f, 1.0f};
  std::vector<const Kernels*> tables{&quickdrop::simd::scalar_kernels()};
  if (avx2_usable()) tables.push_back(&quickdrop::simd::avx2_kernels());
  for (const Kernels* k : tables) {
    for (const std::int64_t reps : {1, 3}) {  // 8 lanes, then 24: tail and vector paths
      std::vector<float> x, want_relu, want_mask;
      for (std::int64_t r = 0; r < reps; ++r) {
        x.insert(x.end(), std::begin(in), std::end(in));
        want_relu.insert(want_relu.end(), std::begin(relu), std::end(relu));
        want_mask.insert(want_mask.end(), std::begin(mask), std::end(mask));
      }
      const auto n = static_cast<std::int64_t>(x.size());
      std::vector<float> got(x.size());
      k->unary_run(quickdrop::simd::UnaryOp::kRelu, got.data(), x.data(), 0.0f, n);
      expect_same_bytes(got, want_relu, std::string("relu ") + k->name);
      k->unary_run(quickdrop::simd::UnaryOp::kGtZeroMask, got.data(), x.data(), 0.0f, n);
      expect_same_bytes(got, want_mask, std::string("mask ") + k->name);
    }
  }
}

TEST(SimdParity, GatherRunsMatchBitwise) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 not available";
  const Kernels& s = quickdrop::simd::scalar_kernels();
  const Kernels& v = quickdrop::simd::avx2_kernels();
  for (const std::int64_t step : {0, 1, 2, 5}) {
    for (std::int64_t n = 0; n <= 67; ++n) {
      const auto x = special_buffer(n * step + 1, 0.25f);
      std::vector<float> os(static_cast<std::size_t>(n)), ov(static_cast<std::size_t>(n));
      s.gather_run(os.data(), x.data(), n, step);
      v.gather_run(ov.data(), x.data(), n, step);
      expect_same_bytes(os, ov, "gather_run step " + std::to_string(step) + " n " +
                                    std::to_string(n));
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(os[static_cast<std::size_t>(i)]),
                  std::bit_cast<std::uint32_t>(x[static_cast<std::size_t>(i * step)]));
      }
    }
  }
}

TEST(SimdParity, TransposeMatchesBitwise) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 not available";
  const Kernels& s = quickdrop::simd::scalar_kernels();
  const Kernels& v = quickdrop::simd::avx2_kernels();
  for (const std::int64_t rows : {0, 1, 7, 8, 9, 17, 27}) {
    for (const std::int64_t cols : {0, 1, 5, 8, 16, 23}) {
      // A column slice of a wider matrix, into a wider output, like a chunk.
      const std::int64_t ldx = cols + 3, ldo = rows + 2;
      const auto x = special_buffer(rows * ldx, 0.5f);
      std::vector<float> os(static_cast<std::size_t>(cols * ldo), 7.0f), ov = os;
      s.transpose(os.data(), ldo, x.data(), ldx, rows, cols);
      v.transpose(ov.data(), ldo, x.data(), ldx, rows, cols);
      expect_same_bytes(os, ov,
                        "transpose " + std::to_string(rows) + "x" + std::to_string(cols));
      for (std::int64_t j = 0; j < cols; ++j) {
        for (std::int64_t i = 0; i < rows; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(os[static_cast<std::size_t>(j * ldo + i)]),
                    std::bit_cast<std::uint32_t>(x[static_cast<std::size_t>(i * ldx + j)]));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: the dispatched matmul kernel is bitwise identical across
// dispatch paths and thread counts (the golden-checkpoint metrics depend on
// this forward path staying put).
// ---------------------------------------------------------------------------

Tensor synth_matrix(std::int64_t rows, std::int64_t cols, float phase) {
  Tensor t({rows, cols});
  auto d = t.data();
  for (std::size_t i = 0; i < d.size(); ++i) {
    d[i] = synth_value(static_cast<std::int64_t>(i), phase);
  }
  return t;
}

TEST(SimdDispatch, MatmulBitwiseAcrossDispatchAndThreads) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 not available";
  // Sizes straddle the 4-way kk unroll (k=9, k=130 also crosses the kk tile)
  // and leave a j-loop tail (n=13, n=33).
  const struct {
    std::int64_t m, k, n;
  } cases[] = {{5, 9, 13}, {17, 130, 33}, {8, 4, 8}};
  for (const auto& c : cases) {
    const Tensor a = synth_matrix(c.m, c.k, 0.5f);
    const Tensor b = synth_matrix(c.k, c.n, -0.25f);
    std::vector<float> reference;
    {
      DispatchScope dispatch(Dispatch::kScalar);
      PoolScope pool(1);
      const Tensor out = quickdrop::kernels::matmul(a, b);
      reference.assign(out.data().begin(), out.data().end());
    }
    for (const int threads : {1, 4, 8}) {
      for (const Dispatch d : {Dispatch::kScalar, Dispatch::kAvx2}) {
        DispatchScope dispatch(d);
        PoolScope pool(threads);
        const Tensor out = quickdrop::kernels::matmul(a, b);
        std::vector<float> got(out.data().begin(), out.data().end());
        expect_bitwise_equal(reference, got, "matmul");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------------

TEST(SimdDispatch, ForceDispatchSelectsRequestedTable) {
  {
    DispatchScope dispatch(Dispatch::kScalar);
    EXPECT_STREQ(quickdrop::simd::active().name, "scalar");
    EXPECT_EQ(quickdrop::simd::active_dispatch(), Dispatch::kScalar);
  }
  if (avx2_usable()) {
    DispatchScope dispatch(Dispatch::kAvx2);
    EXPECT_STREQ(quickdrop::simd::active().name, "avx2");
    EXPECT_EQ(quickdrop::simd::active_dispatch(), Dispatch::kAvx2);
  }
}

TEST(SimdDispatch, Avx2RequestDegradesToScalarWhenUnsupported) {
  if (avx2_usable()) GTEST_SKIP() << "AVX2 available; degradation path not reachable";
  DispatchScope dispatch(Dispatch::kAvx2);
  EXPECT_STREQ(quickdrop::simd::active().name, "scalar");
}

TEST(SimdDispatch, ScalarOracleTablesAreDistinctWhenAvx2Compiled) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 not available";
  EXPECT_NE(&quickdrop::simd::scalar_kernels(), &quickdrop::simd::avx2_kernels());
}

}  // namespace
