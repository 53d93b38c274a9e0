// Bitwise oracle for the coalesced broadcast plans and the vectorized tensor
// runs in tensor/kernels.cpp. The per-element odometer versions of binary_op,
// reduce_sum_to, broadcast_to and permute that the plans replaced, and the
// plain scalar loops of the unary ops, transpose2d, im2col and col2im that the
// dispatched runs replaced, are kept below, serial, as the oracle. Every
// kernel must reproduce their bytes exactly (memcmp, so NaN payloads and the
// sign of zero count) over a seeded sweep of ranks 0-6, size-1 dims
// everywhere, left/right/two-sided broadcasts, non-coalescible permutes, conv
// geometries and the training workload's real shapes — at 1 and 4 threads and
// under the scalar and AVX2 dispatch tables. Each kernel runs right after a
// NaN-filled buffer of its output's size is freed, so an output element it
// leaves unwritten shows up as a mismatch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/simd.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace quickdrop::kernels {
namespace {

namespace oracle {

std::vector<std::int64_t> broadcast_strides(const Shape& in, const Shape& out) {
  const auto in_strides = contiguous_strides(in);
  std::vector<std::int64_t> strides(out.size(), 0);
  const std::size_t off = out.size() - in.size();
  for (std::size_t i = 0; i < in.size(); ++i) {
    strides[off + i] = in[i] == 1 ? 0 : in_strides[i];
  }
  return strides;
}

std::vector<std::int64_t> unflatten(std::int64_t flat, const Shape& shape) {
  std::vector<std::int64_t> idx(shape.size(), 0);
  for (int d = static_cast<int>(shape.size()) - 1; d >= 0; --d) {
    const auto ud = static_cast<std::size_t>(d);
    idx[ud] = flat % shape[ud];
    flat /= shape[ud];
  }
  return idx;
}

std::int64_t offset_of(const std::vector<std::int64_t>& idx,
                       const std::vector<std::int64_t>& strides) {
  std::int64_t off = 0;
  for (std::size_t d = 0; d < idx.size(); ++d) off += idx[d] * strides[d];
  return off;
}

Tensor strided_gather(const Tensor& a, const Shape& out_shape,
                      const std::vector<std::int64_t>& strides) {
  Tensor out(out_shape);
  auto da = a.data();
  auto od = out.data();
  auto idx = unflatten(0, out_shape);
  std::int64_t src = offset_of(idx, strides);
  const auto rank = out_shape.size();
  for (std::int64_t flat = 0; flat < out.numel(); ++flat) {
    od[static_cast<std::size_t>(flat)] = da[static_cast<std::size_t>(src)];
    for (int d = static_cast<int>(rank) - 1; d >= 0; --d) {
      const auto ud = static_cast<std::size_t>(d);
      ++idx[ud];
      src += strides[ud];
      if (idx[ud] < out_shape[ud]) break;
      src -= strides[ud] * out_shape[ud];
      idx[ud] = 0;
    }
  }
  return out;
}

Tensor binary_op(const Tensor& a, const Tensor& b, const std::function<float(float, float)>& f) {
  const Shape out_shape = broadcast_shapes(a.shape(), b.shape());
  Tensor out(out_shape);
  const auto sa = broadcast_strides(a.shape(), out_shape);
  const auto sb = broadcast_strides(b.shape(), out_shape);
  const auto rank = out_shape.size();
  auto da = a.data(), db = b.data();
  auto od = out.data();
  auto idx = unflatten(0, out_shape);
  std::int64_t ia = offset_of(idx, sa), ib = offset_of(idx, sb);
  for (std::int64_t flat = 0; flat < out.numel(); ++flat) {
    od[static_cast<std::size_t>(flat)] =
        f(da[static_cast<std::size_t>(ia)], db[static_cast<std::size_t>(ib)]);
    for (int d = static_cast<int>(rank) - 1; d >= 0; --d) {
      const auto ud = static_cast<std::size_t>(d);
      ++idx[ud];
      ia += sa[ud];
      ib += sb[ud];
      if (idx[ud] < out_shape[ud]) break;
      ia -= sa[ud] * out_shape[ud];
      ib -= sb[ud] * out_shape[ud];
      idx[ud] = 0;
    }
  }
  return out;
}

Tensor permute(const Tensor& a, const std::vector<int>& dims) {
  Shape out_shape(dims.size());
  const auto in_strides = contiguous_strides(a.shape());
  std::vector<std::int64_t> strides(dims.size());
  for (std::size_t i = 0; i < dims.size(); ++i) {
    out_shape[i] = a.shape()[static_cast<std::size_t>(dims[i])];
    strides[i] = in_strides[static_cast<std::size_t>(dims[i])];
  }
  return strided_gather(a, out_shape, strides);
}

Tensor broadcast_to(const Tensor& a, const Shape& shape) {
  return strided_gather(a, shape, broadcast_strides(a.shape(), shape));
}

Tensor reduce_sum_to(const Tensor& a, const Shape& target_shape) {
  if (a.shape() == target_shape) return a.clone();
  Tensor out(target_shape);
  const auto& in_shape = a.shape();
  const auto in_strides = contiguous_strides(in_shape);
  const std::size_t in_rank = in_shape.size();
  const std::size_t off = in_rank - target_shape.size();
  std::vector<std::int64_t> red_extent, red_stride;
  for (std::size_t d = 0; d < in_rank; ++d) {
    if ((d < off || target_shape[d - off] == 1) && in_shape[d] > 1) {
      red_extent.push_back(in_shape[d]);
      red_stride.push_back(in_strides[d]);
    }
  }
  auto da = a.data();
  auto od = out.data();
  std::vector<std::int64_t> ridx(red_extent.size());
  for (std::int64_t o = 0; o < out.numel(); ++o) {
    std::int64_t base = 0, rem = o;
    for (int dt = static_cast<int>(target_shape.size()) - 1; dt >= 0; --dt) {
      const auto ud = static_cast<std::size_t>(dt);
      const std::int64_t id = rem % target_shape[ud];
      rem /= target_shape[ud];
      if (target_shape[ud] != 1) base += id * in_strides[off + ud];
    }
    float acc = 0.0f;
    if (red_extent.empty()) {
      acc = da[static_cast<std::size_t>(base)];
    } else {
      std::fill(ridx.begin(), ridx.end(), 0);
      std::int64_t roff = 0;
      for (;;) {
        acc += da[static_cast<std::size_t>(base + roff)];
        int d = static_cast<int>(red_extent.size()) - 1;
        for (; d >= 0; --d) {
          const auto ud = static_cast<std::size_t>(d);
          ++ridx[ud];
          roff += red_stride[ud];
          if (ridx[ud] < red_extent[ud]) break;
          roff -= red_stride[ud] * red_extent[ud];
          ridx[ud] = 0;
        }
        if (d < 0) break;
      }
    }
    od[static_cast<std::size_t>(o)] = acc;
  }
  return out;
}

Tensor unary(const Tensor& a, const std::function<float(float)>& f) {
  Tensor out(a.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) out.at(i) = f(a.at(i));
  return out;
}

Tensor transpose2d(const Tensor& a) {
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor out({n, m});
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t i = 0; i < m; ++i) out.at(j * m + i) = a.at(i * n + j);
  }
  return out;
}

Tensor im2col(const Tensor& x, int k, int pad, int stride) {
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = (h + 2 * pad - k) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - k) / stride + 1;
  Tensor cols({c * k * k, n * oh * ow});
  auto dx = x.data();
  auto dc = cols.data();
  const std::int64_t col_width = n * oh * ow;
  for (std::int64_t row = 0; row < c * k * k; ++row) {
    const std::int64_t ci = row / (k * k);
    const int ki = static_cast<int>((row / k) % k);
    const int kj = static_cast<int>(row % k);
    float* out_row = dc.data() + row * col_width;
    for (std::int64_t ni = 0; ni < n; ++ni) {
      const float* img = dx.data() + (ni * c + ci) * h * w;
      for (std::int64_t y = 0; y < oh; ++y) {
        const std::int64_t iy = y * stride + ki - pad;
        for (std::int64_t xo = 0; xo < ow; ++xo) {
          const std::int64_t ix = xo * stride + kj - pad;
          const bool in_bounds = iy >= 0 && iy < h && ix >= 0 && ix < w;
          out_row[(ni * oh + y) * ow + xo] = in_bounds ? img[iy * w + ix] : 0.0f;
        }
      }
    }
  }
  return cols;
}

Tensor col2im(const Tensor& cols, const Shape& image_shape, int k, int pad, int stride) {
  const std::int64_t n = image_shape[0], c = image_shape[1], h = image_shape[2],
                     w = image_shape[3];
  const std::int64_t oh = (h + 2 * pad - k) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - k) / stride + 1;
  Tensor out(image_shape);
  auto dc = cols.data();
  auto od = out.data();
  const std::int64_t col_width = n * oh * ow;
  for (std::int64_t p = 0; p < n * c; ++p) {
    const std::int64_t ni = p / c;
    const std::int64_t ci = p % c;
    float* img = od.data() + p * h * w;
    for (int ki = 0; ki < k; ++ki) {
      for (int kj = 0; kj < k; ++kj) {
        const std::int64_t row = (ci * k + ki) * k + kj;
        const float* in_row = dc.data() + row * col_width;
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * stride + ki - pad;
          if (iy < 0 || iy >= h) continue;
          for (std::int64_t xo = 0; xo < ow; ++xo) {
            const std::int64_t ix = xo * stride + kj - pad;
            if (ix < 0 || ix >= w) continue;
            img[iy * w + ix] += in_row[(ni * oh + y) * ow + xo];
          }
        }
      }
    }
  }
  return out;
}

}  // namespace oracle

void expect_same_bytes(const Tensor& got, const Tensor& want, const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  ASSERT_EQ(std::memcmp(got.data().data(), want.data().data(),
                        static_cast<std::size_t>(want.numel()) * sizeof(float)),
            0)
      << what;
}

/// Normal entries; with `specials`, about 1 in 40 is replaced by -0.0f, NaN,
/// +inf or -inf.
Tensor sample(const Shape& shape, Rng& rng, bool specials) {
  Tensor t = Tensor::randn(shape, rng);
  if (!specials) return t;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    switch (rng.uniform_int(0, 159)) {
      case 0: t.at(i) = -0.0f; break;
      case 1: t.at(i) = std::numeric_limits<float>::quiet_NaN(); break;
      case 2: t.at(i) = std::numeric_limits<float>::infinity(); break;
      case 3: t.at(i) = -std::numeric_limits<float>::infinity(); break;
      default: break;
    }
  }
  return t;
}

/// A random shape of the given rank; about a third of the dims are 1.
Shape random_shape(int rank, Rng& rng) {
  static const std::int64_t kExtents[] = {1, 1, 1, 2, 3, 4, 5, 7, 8, 13};
  Shape s(static_cast<std::size_t>(rank));
  for (auto& e : s) e = kExtents[rng.uniform_int(0, 9)];
  return s;
}

/// `full` with some dims set to 1 and a random number of leading dims
/// dropped: a shape that broadcasts up to `full`.
Shape shrink(const Shape& full, Rng& rng) {
  Shape s = full;
  for (auto& e : s) {
    if (rng.uniform_int(0, 2) == 0) e = 1;
  }
  const int drop = rng.uniform_int(0, static_cast<int>(s.size()));
  return Shape(s.begin() + drop, s.end());
}

struct Case {
  std::string name;
  std::function<Tensor()> got, want;
};

/// Runs every case at 1 and 4 threads under each usable dispatch table.
void run_cases(const std::vector<Case>& cases) {
  const int saved_threads = num_threads();
  std::vector<simd::Dispatch> dispatches{simd::Dispatch::kScalar};
  if (simd::avx2_compiled() && simd::avx2_supported()) {
    dispatches.push_back(simd::Dispatch::kAvx2);
  }
  for (const auto dispatch : dispatches) {
    simd::force_dispatch(dispatch);
    for (const int threads : {1, 4}) {
      set_num_threads(threads);
      for (const auto& c : cases) {
        const Tensor want = c.want();
        // Free a NaN-filled buffer of the output's size just before the
        // kernel allocates its output, so the allocator likely hands the
        // kernel these bytes and an unwritten element reads as NaN.
        { const Tensor poison = Tensor::full(want.shape(), std::numeric_limits<float>::quiet_NaN()); }
        expect_same_bytes(c.got(), want,
                          c.name + " @" + std::to_string(threads) + " threads, " +
                              simd::active().name);
        if (::testing::Test::HasFatalFailure()) break;
      }
    }
  }
  simd::force_dispatch(simd::Dispatch::kAuto);
  set_num_threads(saved_threads);
}

using BinaryKernel = Tensor (*)(const Tensor&, const Tensor&);

void add_binary_cases(std::vector<Case>& cases, const Tensor& a, const Tensor& b) {
  const std::string shapes = shape_to_string(a.shape()) + " op " + shape_to_string(b.shape());
  const std::pair<const char*, BinaryKernel> kernels[] = {
      {"add", add}, {"sub", sub}, {"mul", mul}, {"div", div}};
  const std::function<float(float, float)> refs[] = {
      [](float x, float y) { return x + y; }, [](float x, float y) { return x - y; },
      [](float x, float y) { return x * y; }, [](float x, float y) { return x / y; }};
  for (int k = 0; k < 4; ++k) {
    const auto kernel = kernels[k].second;
    const auto ref = refs[k];
    cases.push_back({std::string(kernels[k].first) + " " + shapes, [=] { return kernel(a, b); },
                     [=] { return oracle::binary_op(a, b, ref); }});
  }
}

void add_reduce_case(std::vector<Case>& cases, const Tensor& a, const Shape& target) {
  cases.push_back({"reduce_sum_to " + shape_to_string(a.shape()) + " -> " +
                       shape_to_string(target),
                   [=] { return reduce_sum_to(a, target); },
                   [=] { return oracle::reduce_sum_to(a, target); }});
}

void add_broadcast_case(std::vector<Case>& cases, const Tensor& a, const Shape& shape) {
  cases.push_back({"broadcast_to " + shape_to_string(a.shape()) + " -> " + shape_to_string(shape),
                   [=] { return broadcast_to(a, shape); },
                   [=] { return oracle::broadcast_to(a, shape); }});
}

void add_permute_case(std::vector<Case>& cases, const Tensor& a, const std::vector<int>& dims) {
  std::string perm;
  for (const int d : dims) perm += std::to_string(d);
  cases.push_back({"permute " + shape_to_string(a.shape()) + " by " + perm,
                   [=] { return permute(a, dims); }, [=] { return oracle::permute(a, dims); }});
}

void add_unary_cases(std::vector<Case>& cases, const Tensor& a) {
  const std::string shape = " " + shape_to_string(a.shape());
  const auto add_case = [&](const char* name, std::function<Tensor()> got,
                            std::function<float(float)> ref) {
    cases.push_back({name + shape, std::move(got), [=] { return oracle::unary(a, ref); }});
  };
  add_case("neg", [=] { return neg(a); }, [](float x) { return -x; });
  add_case("relu", [=] { return relu(a); }, [](float x) { return x > 0.0f ? x : 0.0f; });
  add_case("gt_zero_mask", [=] { return gt_zero_mask(a); },
           [](float x) { return x > 0.0f ? 1.0f : 0.0f; });
  add_case("add_scalar", [=] { return add_scalar(a, 0.375f); },
           [](float x) { return x + 0.375f; });
  add_case("mul_scalar", [=] { return mul_scalar(a, -1.5f); }, [](float x) { return x * -1.5f; });
  add_case("sqrt", [=] { return sqrt(a); }, [](float x) { return std::sqrt(x); });
  add_case("exp", [=] { return exp(a); }, [](float x) { return std::exp(x); });
  add_case("log", [=] { return log(a); }, [](float x) { return std::log(x); });
}

void add_transpose_case(std::vector<Case>& cases, const Tensor& a) {
  cases.push_back({"transpose2d " + shape_to_string(a.shape()), [=] { return transpose2d(a); },
                   [=] { return oracle::transpose2d(a); }});
}

void add_conv_cases(std::vector<Case>& cases, const Tensor& x, int k, int pad, int stride) {
  const std::string geometry = shape_to_string(x.shape()) + " k" + std::to_string(k) + " p" +
                               std::to_string(pad) + " s" + std::to_string(stride);
  cases.push_back({"im2col " + geometry, [=] { return im2col(x, k, pad, stride); },
                   [=] { return oracle::im2col(x, k, pad, stride); }});
  // Fold a random columns matrix back, so overlapping contributions differ.
  // col2im sums inf and -inf into x86's default NaN (sign bit set) and may
  // then add an input NaN to it. Which NaN a NaN + NaN returns depends on
  // the operand order the compiler picks, for the old loop as for the new
  // runs, so the columns' NaNs are that same default NaN: every NaN in this
  // case has one bit pattern, and the comparison stays exact.
  Rng rng(static_cast<std::uint64_t>(x.numel() * 131 + k * 17 + pad * 5 + stride));
  Tensor cols = sample(oracle::im2col(x, k, pad, stride).shape(), rng, true);
  for (std::int64_t i = 0; i < cols.numel(); ++i) {
    if (std::isnan(cols.at(i))) cols.at(i) = -std::numeric_limits<float>::quiet_NaN();
  }
  cases.push_back({"col2im " + geometry, [=] { return col2im(cols, x.shape(), k, pad, stride); },
                   [=] { return oracle::col2im(cols, x.shape(), k, pad, stride); }});
}

TEST(BroadcastPlanTest, BinaryOpsMatchOdometerOnRandomBroadcasts) {
  Rng rng(101);
  std::vector<Case> cases;
  for (int i = 0; i < 120; ++i) {
    const Shape out = random_shape(rng.uniform_int(0, 6), rng);
    Shape sa = shrink(out, rng), sb = shrink(out, rng);
    switch (i % 3) {  // right, left and two-sided broadcasts
      case 0: sa = out; break;
      case 1: sb = out; break;
      default: break;
    }
    if (sa == sb) continue;  // the same-shape path is not planned
    add_binary_cases(cases, sample(sa, rng, i % 2 == 0), sample(sb, rng, i % 2 == 0));
  }
  run_cases(cases);
}

TEST(BroadcastPlanTest, ReduceSumToMatchesOdometerOnRandomTargets) {
  Rng rng(102);
  std::vector<Case> cases;
  for (int i = 0; i < 150; ++i) {
    const Shape in = random_shape(rng.uniform_int(0, 6), rng);
    add_reduce_case(cases, sample(in, rng, i % 2 == 0), shrink(in, rng));
  }
  run_cases(cases);
}

TEST(BroadcastPlanTest, BroadcastToMatchesOdometerOnRandomShapes) {
  Rng rng(103);
  std::vector<Case> cases;
  for (int i = 0; i < 100; ++i) {
    const Shape out = random_shape(rng.uniform_int(0, 6), rng);
    add_broadcast_case(cases, sample(shrink(out, rng), rng, i % 2 == 0), out);
  }
  run_cases(cases);
}

TEST(BroadcastPlanTest, PermuteMatchesOdometerOnRandomPermutations) {
  Rng rng(104);
  std::vector<Case> cases;
  for (int i = 0; i < 100; ++i) {
    const int rank = rng.uniform_int(0, 6);
    add_permute_case(cases, sample(random_shape(rank, rng), rng, i % 2 == 0),
                     rng.permutation(rank));
  }
  // Non-coalescible permutes: every adjacent output pair is non-contiguous.
  add_permute_case(cases, sample({5, 7, 3, 11}, rng, true), {3, 1, 2, 0});
  add_permute_case(cases, sample({2, 3, 5, 7, 11}, rng, false), {4, 2, 0, 3, 1});
  add_permute_case(cases, sample({97, 131}, rng, false), {1, 0});
  run_cases(cases);
}

TEST(BroadcastPlanTest, WorkloadShapesMatchOdometer) {
  // The shapes the ConvNet's InstanceNorm, bias, softmax and conv layers
  // feed these kernels during a training round.
  Rng rng(105);
  std::vector<Case> cases;
  const auto x = sample({9, 16, 12, 12}, rng, false);
  const auto per_channel = sample({1, 16, 1, 1}, rng, false);
  const auto per_instance = sample({9, 16, 1, 1}, rng, false);
  add_binary_cases(cases, x, per_channel);
  add_binary_cases(cases, per_instance, x);
  add_binary_cases(cases, x, sample({16, 1, 1}, rng, false));
  add_reduce_case(cases, x, {9, 16, 1, 1});
  add_reduce_case(cases, x, {1, 16, 1, 1});
  add_reduce_case(cases, x, {16, 1, 1});
  add_reduce_case(cases, x, {});
  add_reduce_case(cases, x, {1});
  const auto rows = sample({256, 10}, rng, false);
  add_reduce_case(cases, rows, {256, 1});
  add_reduce_case(cases, rows, {1, 10});
  add_reduce_case(cases, rows, {10});
  add_binary_cases(cases, rows, sample({256, 1}, rng, false));
  add_binary_cases(cases, rows, sample({10}, rng, false));
  add_broadcast_case(cases, per_instance, {9, 16, 12, 12});
  add_broadcast_case(cases, per_channel, {9, 16, 12, 12});
  add_broadcast_case(cases, sample({}, rng, false), {9, 16, 12, 12});
  add_permute_case(cases, sample({16, 9, 12, 12}, rng, false), {1, 0, 2, 3});
  add_permute_case(cases, x, {1, 0, 2, 3});
  run_cases(cases);
}

TEST(BroadcastPlanTest, SpecialValuesMatchOdometer) {
  Rng rng(106);
  std::vector<Case> cases;
  const float specials[] = {-0.0f, 0.0f, std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), 1.0f};
  // Every special value in every position of a small lattice.
  Tensor a({6, 6, 5});
  for (std::int64_t i = 0; i < a.numel(); ++i) a.at(i) = specials[(i + i / 7) % 6];
  Tensor b({6, 1, 5});
  for (std::int64_t i = 0; i < b.numel(); ++i) b.at(i) = specials[(i / 5) % 6];
  add_binary_cases(cases, a, b);
  add_binary_cases(cases, b, a);
  for (const Shape& target : std::vector<Shape>{{6, 1, 5}, {1, 6, 1}, {5}, {}, {1, 1, 1}}) {
    add_reduce_case(cases, a, target);
  }
  add_broadcast_case(cases, b, {6, 6, 5});
  add_permute_case(cases, a, {2, 0, 1});
  // A sum of only -0.0f is +0.0f, because every sum starts from +0.0f.
  const auto neg_zeros = Tensor::full({4, 6}, -0.0f);
  for (const Shape& target : std::vector<Shape>{{1, 6}, {4, 1}, {}}) {
    add_reduce_case(cases, neg_zeros, target);
  }
  run_cases(cases);
}

TEST(TensorRunTest, UnaryOpsMatchScalarLoops) {
  Rng rng(108);
  std::vector<Case> cases;
  for (int i = 0; i < 30; ++i) {
    add_unary_cases(cases, sample(random_shape(rng.uniform_int(0, 5), rng), rng, true));
  }
  add_unary_cases(cases, sample({9, 16, 12, 12}, rng, true));
  const float specials[] = {-0.0f, 0.0f, std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min(), -1e-40f, 2.0f, -3.0f};
  Tensor every({67});
  for (std::int64_t i = 0; i < every.numel(); ++i) every.at(i) = specials[i % 9];
  add_unary_cases(cases, every);
  run_cases(cases);
}

TEST(TensorRunTest, Transpose2dMatchesColumnGather) {
  Rng rng(109);
  std::vector<Case> cases;
  for (const auto& [m, n] : std::vector<std::pair<std::int64_t, std::int64_t>>{
           {1, 1}, {1, 9}, {9, 1}, {7, 7}, {8, 8}, {15, 17}, {16, 16}, {33, 65}, {144, 324},
           {27, 1296}, {0, 5}, {5, 0}}) {
    add_transpose_case(cases, sample({m, n}, rng, true));
  }
  run_cases(cases);
}

TEST(TensorRunTest, Im2ColAndCol2ImMatchScalarLoops) {
  Rng rng(110);
  std::vector<Case> cases;
  add_conv_cases(cases, sample({9, 16, 12, 12}, rng, false), 3, 1, 1);
  add_conv_cases(cases, sample({9, 3, 12, 12}, rng, true), 3, 1, 1);
  struct Geometry {
    Shape shape;
    int k, pad, stride;
  };
  for (const auto& g : std::vector<Geometry>{{{1, 1, 4, 4}, 3, 1, 1},
                                             {{2, 2, 4, 5}, 2, 0, 1},
                                             {{1, 1, 6, 6}, 3, 0, 2},
                                             {{1, 3, 3, 3}, 3, 2, 1},
                                             {{2, 1, 5, 5}, 1, 0, 1},
                                             {{1, 2, 2, 3}, 1, 2, 1},
                                             {{2, 2, 7, 9}, 5, 2, 1},
                                             {{1, 2, 7, 9}, 3, 1, 2},
                                             {{1, 1, 20, 20}, 3, 1, 1}}) {
    add_conv_cases(cases, sample(g.shape, rng, true), g.k, g.pad, g.stride);
  }
  run_cases(cases);
}

TEST(BroadcastPlanTest, PlanRankLimitIsSixteenCoalescedDims) {
  // Reversing the axes of an all-2 tensor leaves no pair of dims to merge.
  const auto reversed = [](int rank) {
    std::vector<int> dims(static_cast<std::size_t>(rank));
    for (int i = 0; i < rank; ++i) dims[static_cast<std::size_t>(i)] = rank - 1 - i;
    return dims;
  };
  Rng rng(107);
  std::vector<Case> cases;
  add_permute_case(cases, sample(Shape(16, 2), rng, false), reversed(16));
  run_cases(cases);
  EXPECT_THROW(permute(Tensor(Shape(17, 2)), reversed(17)), std::invalid_argument);
  // Size-1 and mergeable dims do not count against the limit.
  const Tensor wide(Shape(40, 1));
  EXPECT_EQ(reduce_sum_to(wide, {}).shape(), Shape{});
  EXPECT_EQ(broadcast_to(Tensor(Shape(20, 1)), Shape(20, 2)).numel(), 1 << 20);
}

TEST(BroadcastPlanTest, EmptyReducedDimSumsToZero) {
  // No oracle here: the odometer read past the end of an empty input.
  const auto got = reduce_sum_to(Tensor({0, 3}), {1, 3});
  ASSERT_EQ(got.shape(), (Shape{1, 3}));
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    EXPECT_EQ(got.at(i), 0.0f);
    EXPECT_FALSE(std::signbit(got.at(i)));
  }
}

TEST(BroadcastPlanTest, IdentityReduceIsAPlainCopy) {
  // Nothing is summed when every reduced dim has extent 1, so the result is
  // the input's bits: -0.0f stays negative (0.0f + -0.0f would be +0.0f).
  const Tensor a({1, 3, 1, 2}, {-0.0f, 1.0f, -0.0f, std::numeric_limits<float>::quiet_NaN(),
                                -0.0f, -2.5f});
  for (const Shape& target : std::vector<Shape>{{3, 1, 2}, {1, 3, 1, 2}}) {
    const auto got = reduce_sum_to(a, target);
    expect_same_bytes(got.reshaped(a.shape()), a, "identity reduce to " + shape_to_string(target));
    EXPECT_TRUE(std::signbit(got.at(0)));
  }
  std::vector<Case> cases;
  add_reduce_case(cases, a, {3, 1, 2});
  add_reduce_case(cases, Tensor({1, 1}, {-0.0f}), {1});
  add_reduce_case(cases, Tensor({1, 1}, {-0.0f}), {});
  run_cases(cases);
}

}  // namespace
}  // namespace quickdrop::kernels
