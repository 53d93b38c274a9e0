#include "tensor/kernels.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "tensor/simd.h"
#include "util/thread_pool.h"

// Parallelization strategy (see DESIGN.md "Threading model"): every kernel
// partitions its *output* so each element is written by exactly one chunk,
// and the per-element operation order is fixed by the element itself, never
// by the chunk layout. Results are therefore bit-identical at any thread
// count, including the serial fallback at 1 thread.
namespace quickdrop::kernels {
namespace {

/// Strides for iterating an input of shape `in` as if it had the broadcast
/// shape `out` (stride 0 on broadcast dimensions).
std::vector<std::int64_t> broadcast_strides(const Shape& in, const Shape& out) {
  const auto in_strides = contiguous_strides(in);
  std::vector<std::int64_t> strides(out.size(), 0);
  const std::size_t off = out.size() - in.size();
  for (std::size_t i = 0; i < in.size(); ++i) {
    strides[off + i] = in[i] == 1 ? 0 : in_strides[i];
  }
  return strides;
}

// Broadcast plans (DESIGN.md §8 "Broadcast plans"). A strided kernel walks a
// contiguous row-major result while reading N operands through per-dimension
// strides. The plan drops size-1 dims and merges each adjacent pair of dims
// that is contiguous for every operand (outer stride == inner stride * inner
// extent), so the result is walked as (outer..., inner) runs and each operand
// advances along the inner run by one fixed stride. Coalescing only renames
// the lattice: every result element still reads the same operand elements in
// the same order, so the bits are those of a per-element odometer.
constexpr int kMaxPlanDims = 16;

template <std::size_t N>
struct Plan {
  int rank = 0;  // >= 1 once built; dim rank-1 is the inner run
  std::array<std::int64_t, kMaxPlanDims> extent{};
  std::array<std::array<std::int64_t, kMaxPlanDims>, N> stride{};
};

template <std::size_t N>
Plan<N> make_plan(const Shape& shape, const std::array<std::vector<std::int64_t>, N>& strides) {
  Plan<N> p;
  for (std::size_t d = 0; d < shape.size(); ++d) {
    if (shape[d] == 1) continue;
    bool merges = p.rank > 0;
    for (std::size_t k = 0; k < N && merges; ++k) {
      merges = p.stride[k][p.rank - 1] == strides[k][d] * shape[d];
    }
    if (merges) {
      p.extent[p.rank - 1] *= shape[d];
      for (std::size_t k = 0; k < N; ++k) p.stride[k][p.rank - 1] = strides[k][d];
      continue;
    }
    if (p.rank == kMaxPlanDims) {
      throw std::invalid_argument("tensor kernel: " + shape_to_string(shape) + " keeps more than " +
                                  std::to_string(kMaxPlanDims) + " dims after coalescing");
    }
    p.extent[p.rank] = shape[d];
    for (std::size_t k = 0; k < N; ++k) p.stride[k][p.rank] = strides[k][d];
    ++p.rank;
  }
  if (p.rank == 0) {  // one element: a single run of length 1 (its stride is never stepped)
    p.rank = 1;
    p.extent[0] = 1;
    for (std::size_t k = 0; k < N; ++k) p.stride[k][0] = 1;
  }
  return p;
}

/// Walks result elements [lo, hi) of `p` as inner runs: run(flat, off, n)
/// covers results flat .. flat+n-1, whose operand-k elements sit at
/// off[k] + i * p.stride[k][p.rank-1]. The index state is fixed-size; the
/// only div/mod is the seek to `lo`.
template <std::size_t N, typename Run>
void for_each_run(const Plan<N>& p, std::int64_t lo, std::int64_t hi, Run run) {
  const int in = p.rank - 1;
  std::array<std::int64_t, kMaxPlanDims> idx{};
  std::array<std::int64_t, N> off{};
  std::int64_t rem = lo;
  for (int d = in; d >= 0 && rem != 0; --d) {
    const auto ud = static_cast<std::size_t>(d);
    idx[ud] = rem % p.extent[ud];
    rem /= p.extent[ud];
    for (std::size_t k = 0; k < N; ++k) off[k] += idx[ud] * p.stride[k][ud];
  }
  const auto uin = static_cast<std::size_t>(in);
  for (std::int64_t flat = lo;;) {
    const std::int64_t n = std::min(p.extent[uin] - idx[uin], hi - flat);
    run(flat, off, n);
    flat += n;
    if (flat >= hi) return;
    // The run reached the end of the inner dim: rewind it, step the outer odometer.
    for (std::size_t k = 0; k < N; ++k) off[k] -= idx[uin] * p.stride[k][uin];
    idx[uin] = 0;
    for (int d = in - 1; d >= 0; --d) {
      const auto ud = static_cast<std::size_t>(d);
      for (std::size_t k = 0; k < N; ++k) off[k] += p.stride[k][ud];
      if (++idx[ud] < p.extent[ud]) break;
      for (std::size_t k = 0; k < N; ++k) off[k] -= p.stride[k][ud] * p.extent[ud];
      idx[ud] = 0;
    }
  }
}

/// Runs shorter than one AVX2 vector stay in an inline loop: the avgpool
/// broadcasts walk runs of 1-2 elements, where the table's indirect call
/// would cost more than it saves. The inline loop is the table entry's
/// expression, so both routes give the same bits.
constexpr std::int64_t kMinTableRun = 8;

/// Gathers out[flat] = da[offset(flat)] for flat in [begin, end) along a
/// one-operand plan. Pure per-element map: safe and bit-stable under any
/// output partition.
void strided_gather(std::span<const float> da, std::span<float> od, const Plan<1>& plan,
                    std::int64_t begin, std::int64_t end) {
  const std::int64_t s = plan.stride[0][static_cast<std::size_t>(plan.rank - 1)];
  const auto& simd_k = simd::active();
  for_each_run(plan, begin, end, [&](std::int64_t flat, const std::array<std::int64_t, 1>& off,
                                     std::int64_t n) {
    float* o = od.data() + flat;
    const float* x = da.data() + off[0];
    if (n >= kMinTableRun) {
      simd_k.gather_run(o, x, n, s);
      return;
    }
    for (std::int64_t i = 0; i < n; ++i) o[i] = x[i * s];
  });
}

/// o[i] = f(x[i * x_step], y[i * y_step]), where `f` is `op`'s expression.
template <typename F>
void binary_run(const simd::Kernels& simd_k, simd::BinaryOp op, F f, float* o, const float* x,
                const float* y, std::int64_t n, std::int64_t x_step, std::int64_t y_step) {
  if (n >= kMinTableRun) {
    simd_k.binary_run(op, o, x, y, n, x_step, y_step);
    return;
  }
  // qdlint: shared-write(callers pass a disjoint o[0,n) run)
  for (std::int64_t i = 0; i < n; ++i) o[i] = f(x[i * x_step], y[i * y_step]);
}

/// Sums kChains outputs of reduce_sum_to at once: chain c adds up the
/// reduced lattice `red` (of `count` points) based at x + c*ks into o[c],
/// from 0.0f in increasing input-flat order. The chains are independent, so
/// interleaving them only hides add latency; no chain's order changes.
constexpr int kSumChains = 4;

template <int kChains>
void sum_chains(const Plan<1>& red, std::int64_t count, const float* x, std::int64_t ks,
                float* o) {
  const std::int64_t s = red.stride[0][static_cast<std::size_t>(red.rank - 1)];
  std::array<float, kChains> acc{};
  for_each_run(red, 0, count, [&](std::int64_t, const std::array<std::int64_t, 1>& off,
                                  std::int64_t n) {
    const float* p = x + off[0];
    for (std::int64_t j = 0; j < n; ++j) {
      for (int c = 0; c < kChains; ++c) acc[c] += p[c * ks + j * s];
    }
  });
  for (int c = 0; c < kChains; ++c) o[c] = acc[c];
}

template <typename F>
Tensor binary_op(const Tensor& a, const Tensor& b, simd::BinaryOp op, F f, const char* name) {
  const auto& simd_k = simd::active();
  if (a.shape() == b.shape()) {  // fast path
    Tensor out = Tensor::uninitialized(a.shape());
    auto oa = a.data(), ob = b.data();
    auto od = out.data();
    ThreadPool::global().parallel_for(
        // qdlint: shared-write(each chunk writes its own disjoint od[lo,hi) slice)
        0, out.numel(), grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
          binary_run(simd_k, op, f, od.data() + lo, oa.data() + lo, ob.data() + lo, hi - lo, 1, 1);
        });
    return out;
  }
  Shape out_shape;
  try {
    out_shape = broadcast_shapes(a.shape(), b.shape());
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(std::string(name) + ": cannot broadcast " +
                                shape_to_string(a.shape()) + " with " + shape_to_string(b.shape()));
  }
  Tensor out = Tensor::uninitialized(out_shape);
  const auto plan = make_plan<2>(
      out_shape, {broadcast_strides(a.shape(), out_shape), broadcast_strides(b.shape(), out_shape)});
  // Both operands are contiguous up to broadcasting, so each inner stride is
  // 1 (the operand spans the inner run) or 0 (it is broadcast along it).
  const auto in = static_cast<std::size_t>(plan.rank - 1);
  const std::int64_t a_step = plan.stride[0][in] != 0 ? 1 : 0;
  const std::int64_t b_step = plan.stride[1][in] != 0 ? 1 : 0;
  auto da = a.data(), db = b.data();
  auto od = out.data();
  ThreadPool::global().parallel_for(
      // qdlint: shared-write(each chunk writes its own disjoint od[lo,hi) slice)
      0, out.numel(), grain_for(2), [&](std::int64_t lo, std::int64_t hi) {
        // qdlint: shared-write(each run writes only od[flat,flat+n) inside this chunk's slice)
        for_each_run(plan, lo, hi, [&](std::int64_t flat, const std::array<std::int64_t, 2>& off,
                                       std::int64_t n) {
          binary_run(simd_k, op, f, od.data() + flat, da.data() + off[0], db.data() + off[1], n,
                     a_step, b_step);
        });
      });
  return out;
}

/// A unary op from the dispatched table (s: the scalar of add/mul_scalar).
Tensor unary_op(const Tensor& a, simd::UnaryOp op, float s = 0.0f) {
  const auto& simd_k = simd::active();
  Tensor out = Tensor::uninitialized(a.shape());
  auto da = a.data();
  auto od = out.data();
  ThreadPool::global().parallel_for(
      // qdlint: shared-write(each chunk writes its own disjoint od[lo,hi) slice)
      0, out.numel(), grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
        simd_k.unary_run(op, od.data() + lo, da.data() + lo, s, hi - lo);
      });
  return out;
}

/// A unary op on libm (exp, log), which has no table entry.
template <typename F>
Tensor libm_unary_op(const Tensor& a, F f) {
  Tensor out = Tensor::uninitialized(a.shape());
  auto da = a.data();
  auto od = out.data();
  ThreadPool::global().parallel_for(
      // qdlint: shared-write(each chunk writes its own disjoint od[lo,hi) slice)
      0, out.numel(), grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          const auto u = static_cast<std::size_t>(i);
          od[u] = f(da[u]);
        }
      });
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, simd::BinaryOp::kAdd, [](float x, float y) { return x + y; }, "add");
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, simd::BinaryOp::kSub, [](float x, float y) { return x - y; }, "sub");
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, simd::BinaryOp::kMul, [](float x, float y) { return x * y; }, "mul");
}
Tensor div(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, simd::BinaryOp::kDiv, [](float x, float y) { return x / y; }, "div");
}

Tensor neg(const Tensor& a) { return unary_op(a, simd::UnaryOp::kNeg); }
Tensor exp(const Tensor& a) {
  return libm_unary_op(a, [](float x) { return std::exp(x); });
}
Tensor log(const Tensor& a) {
  return libm_unary_op(a, [](float x) { return std::log(x); });
}
Tensor sqrt(const Tensor& a) { return unary_op(a, simd::UnaryOp::kSqrt); }
Tensor relu(const Tensor& a) { return unary_op(a, simd::UnaryOp::kRelu); }
Tensor gt_zero_mask(const Tensor& a) { return unary_op(a, simd::UnaryOp::kGtZeroMask); }

Tensor add_scalar(const Tensor& a, float s) { return unary_op(a, simd::UnaryOp::kAddScalar, s); }
Tensor mul_scalar(const Tensor& a, float s) { return unary_op(a, simd::UnaryOp::kMulScalar, s); }

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(0)) {
    throw std::invalid_argument("matmul: bad shapes " + shape_to_string(a.shape()) + " x " +
                                shape_to_string(b.shape()));
  }
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  auto da = a.data(), db = b.data();
  auto od = out.data();
  // Row-partitioned blocked ikj: each output row is owned by one chunk, and
  // its accumulation order over kk is fixed by the kk-tiling constants alone,
  // so any row partition yields bit-identical results. The kk tile keeps a
  // block of B rows hot across the chunk's rows; the 4-way kk unroll keeps
  // the inner j loop branch-free and vectorizable (the old `av == 0` skip
  // defeated both).
  constexpr std::int64_t kKTile = 128;
  const auto& simd_k = simd::active();
  ThreadPool::global().parallel_for(
      // qdlint: shared-write(each chunk owns output rows [i0,i1); db/da are read-only)
      0, m, grain_for(2 * k * n), [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t kk0 = 0; kk0 < k; kk0 += kKTile) {
          const std::int64_t kk1 = kk0 + kKTile < k ? kk0 + kKTile : k;
          for (std::int64_t i = i0; i < i1; ++i) {
            float* orow = od.data() + i * n;
            const float* arow = da.data() + i * k;
            std::int64_t kk = kk0;
            for (; kk + 4 <= kk1; kk += 4) {
              const float* b0 = db.data() + kk * n;
              // The dispatched tile keeps the exact left-associated
              // mul-then-add chain of the scalar expression
              // orow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j],
              // so results stay bitwise identical across dispatch paths.
              simd_k.matmul_tile4(orow, arow[kk], arow[kk + 1], arow[kk + 2], arow[kk + 3], b0,
                                  b0 + n, b0 + 2 * n, b0 + 3 * n, n);
            }
            for (; kk < kk1; ++kk) {
              // Remainder rows are plain axpy over the output row.
              simd_k.axpy(orow, db.data() + kk * n, arow[kk], n);
            }
          }
        }
      });
  return out;
}

Tensor transpose2d(const Tensor& a) {
  if (a.rank() != 2) throw std::invalid_argument("transpose2d: rank must be 2");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor out = Tensor::uninitialized({n, m});
  auto da = a.data();
  auto od = out.data();
  const auto& simd_k = simd::active();
  // Partitioned over output rows; each chunk is one block transpose of input
  // columns [j0,j1), a pure copy.
  // qdlint: shared-write(each chunk owns output rows [j0,j1))
  ThreadPool::global().parallel_for(0, n, grain_for(m), [&](std::int64_t j0, std::int64_t j1) {
    simd_k.transpose(od.data() + j0 * m, m, da.data() + j0, n, m, j1 - j0);
  });
  return out;
}

Tensor permute(const Tensor& a, const std::vector<int>& dims) {
  const int rank = a.rank();
  if (static_cast<int>(dims.size()) != rank) {
    throw std::invalid_argument("permute: dims size mismatch");
  }
  std::vector<bool> seen(static_cast<std::size_t>(rank), false);
  Shape out_shape(static_cast<std::size_t>(rank));
  for (int i = 0; i < rank; ++i) {
    const int d = dims[static_cast<std::size_t>(i)];
    if (d < 0 || d >= rank || seen[static_cast<std::size_t>(d)]) {
      throw std::invalid_argument("permute: dims is not a permutation");
    }
    seen[static_cast<std::size_t>(d)] = true;
    out_shape[static_cast<std::size_t>(i)] = a.shape()[static_cast<std::size_t>(d)];
  }
  Tensor out = Tensor::uninitialized(out_shape);
  const auto in_strides = contiguous_strides(a.shape());
  std::vector<std::int64_t> strides(static_cast<std::size_t>(rank));
  for (int i = 0; i < rank; ++i) {
    strides[static_cast<std::size_t>(i)] = in_strides[static_cast<std::size_t>(dims[static_cast<std::size_t>(i)])];
  }
  const auto plan = make_plan<1>(out_shape, {std::move(strides)});
  auto da = a.data();
  auto od = out.data();
  ThreadPool::global().parallel_for(
      // qdlint: shared-write(strided_gather writes only od[lo,hi); da is read-only)
      0, out.numel(), grain_for(2), [&](std::int64_t lo, std::int64_t hi) {
        strided_gather(da, od, plan, lo, hi);
      });
  return out;
}

Tensor reduce_sum_to(const Tensor& a, const Shape& target_shape) {
  if (a.shape() == target_shape) return a.clone();
  if (!broadcastable_to(target_shape, a.shape())) {
    throw std::invalid_argument("reduce_sum_to: " + shape_to_string(target_shape) +
                                " does not broadcast to " + shape_to_string(a.shape()));
  }
  const auto& in_shape = a.shape();
  const auto in_strides = contiguous_strides(in_shape);
  const std::size_t in_rank = in_shape.size();
  const std::size_t off = in_rank - target_shape.size();
  // Split input dimensions into kept (present in the target) and reduced
  // (missing or broadcast), each coalesced on its own. The target's non-1
  // dims are exactly the kept dims in order, so output o is the o-th point
  // of the kept lattice. Each output element sums its reduced sub-lattice in
  // increasing input-flat order from 0.0f — exactly the per-element
  // accumulation order of a serial streaming pass — so partitioning over
  // *output* elements is both race-free and bit-stable at any thread count.
  Shape kept_extent, red_extent;
  std::vector<std::int64_t> kept_stride, red_stride;
  for (std::size_t d = 0; d < in_rank; ++d) {
    const bool reduced = d < off || target_shape[d - off] == 1;
    (reduced ? red_extent : kept_extent).push_back(in_shape[d]);
    (reduced ? red_stride : kept_stride).push_back(in_strides[d]);
  }
  const auto kept = make_plan<1>(kept_extent, {std::move(kept_stride)});
  const std::int64_t reduce_count = numel(red_extent);
  if (reduce_count == 0) return Tensor(target_shape);  // every output is an empty sum: 0.0f
  Tensor out = Tensor::uninitialized(target_shape);
  auto da = a.data();
  auto od = out.data();
  if (reduce_count == 1) {
    // Nothing is summed: a plain copy, so -0.0f and NaN payloads survive.
    ThreadPool::global().parallel_for(
        // qdlint: shared-write(strided_gather writes only od[lo,hi); da is read-only)
        0, out.numel(), grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
          strided_gather(da, od, kept, lo, hi);
        });
    return out;
  }
  const auto red = make_plan<1>(red_extent, {std::move(red_stride)});
  ThreadPool::global().parallel_for(
      // qdlint: shared-write(each chunk writes its own disjoint od[lo,hi) slice)
      0, out.numel(), grain_for(reduce_count), [&](std::int64_t lo, std::int64_t hi) {
        const std::int64_t ks = kept.stride[0][static_cast<std::size_t>(kept.rank - 1)];
        // qdlint: shared-write(each run writes only od[flat,flat+n) inside this chunk's slice)
        for_each_run(kept, lo, hi, [&](std::int64_t flat, const std::array<std::int64_t, 1>& base,
                                       std::int64_t n) {
          float* o = od.data() + flat;
          const float* x = da.data() + base[0];
          std::int64_t i = 0;
          for (; i + kSumChains <= n; i += kSumChains) {
            sum_chains<kSumChains>(red, reduce_count, x + i * ks, ks, o + i);
          }
          for (; i < n; ++i) sum_chains<1>(red, reduce_count, x + i * ks, ks, o + i);
        });
      });
  return out;
}

Tensor broadcast_to(const Tensor& a, const Shape& shape) {
  if (a.shape() == shape) return a.clone();
  if (!broadcastable_to(a.shape(), shape)) {
    throw std::invalid_argument("broadcast_to: " + shape_to_string(a.shape()) +
                                " does not broadcast to " + shape_to_string(shape));
  }
  Tensor out = Tensor::uninitialized(shape);
  const auto plan = make_plan<1>(shape, {broadcast_strides(a.shape(), shape)});
  auto da = a.data();
  auto od = out.data();
  ThreadPool::global().parallel_for(
      // qdlint: shared-write(strided_gather writes only od[lo,hi); da is read-only)
      0, out.numel(), grain_for(2), [&](std::int64_t lo, std::int64_t hi) {
        strided_gather(da, od, plan, lo, hi);
      });
  return out;
}

namespace {
void check_conv_geometry(const Shape& image_shape, int k, int pad, int stride) {
  if (image_shape.size() != 4) throw std::invalid_argument("im2col: input must be [N,C,H,W]");
  if (k <= 0 || pad < 0 || stride <= 0) throw std::invalid_argument("im2col: bad geometry");
  const std::int64_t h = image_shape[2], w = image_shape[3];
  if (h + 2 * pad < k || w + 2 * pad < k) {
    throw std::invalid_argument("im2col: kernel larger than padded input");
  }
}
}  // namespace

Tensor im2col(const Tensor& x, int k, int pad, int stride) {
  check_conv_geometry(x.shape(), k, pad, stride);
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = (h + 2 * pad - k) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - k) / stride + 1;
  Tensor cols = Tensor::uninitialized({c * k * k, n * oh * ow});
  auto dx = x.data();
  auto dc = cols.data();
  const std::int64_t col_width = n * oh * ow;
  // Partitioned over output rows (one per (ci, ki, kj)); each row is a
  // disjoint slice of `cols`, written in full by pure gathers.
  ThreadPool::global().parallel_for(
      // qdlint: shared-write(each chunk owns cols rows [r0,r1); dx is read-only)
      0, c * k * k, grain_for(col_width), [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t row = r0; row < r1; ++row) {
          const std::int64_t ci = row / (k * k);
          const int ki = static_cast<int>((row / k) % k);
          const int kj = static_cast<int>(row % k);
          // At stride 1 the in-bounds outputs xo of an image row are one
          // contiguous span [x_lo, x_hi) reading img[iy*w + xo + kj - pad].
          const std::int64_t x_lo = std::clamp<std::int64_t>(pad - kj, 0, ow);
          const std::int64_t x_hi = std::clamp<std::int64_t>(w + pad - kj, x_lo, ow);
          for (std::int64_t ni = 0; ni < n; ++ni) {
            const float* img = dx.data() + (ni * c + ci) * h * w;
            for (std::int64_t y = 0; y < oh; ++y) {
              const std::int64_t iy = y * stride + ki - pad;
              float* out = dc.data() + row * col_width + (ni * oh + y) * ow;
              if (iy < 0 || iy >= h) {
                std::fill(out, out + ow, 0.0f);
              } else if (stride == 1) {
                const float* src = img + (iy * w + x_lo + kj - pad);
                std::fill(out, out + x_lo, 0.0f);
                std::copy(src, src + (x_hi - x_lo), out + x_lo);
                std::fill(out + x_hi, out + ow, 0.0f);
              } else {
                for (std::int64_t xo = 0; xo < ow; ++xo) {
                  const std::int64_t ix = xo * stride + kj - pad;
                  out[xo] = ix >= 0 && ix < w ? img[iy * w + ix] : 0.0f;
                }
              }
            }
          }
        }
      });
  return cols;
}

Tensor col2im(const Tensor& cols, const Shape& image_shape, int k, int pad, int stride) {
  check_conv_geometry(image_shape, k, pad, stride);
  const std::int64_t n = image_shape[0], c = image_shape[1], h = image_shape[2], w = image_shape[3];
  const std::int64_t oh = (h + 2 * pad - k) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - k) / stride + 1;
  if (cols.rank() != 2 || cols.dim(0) != c * k * k || cols.dim(1) != n * oh * ow) {
    throw std::invalid_argument("col2im: columns shape mismatch " + shape_to_string(cols.shape()));
  }
  Tensor out(image_shape);
  auto dc = cols.data();
  auto od = out.data();
  const std::int64_t col_width = n * oh * ow;
  const auto& simd_k = simd::active();
  // Partitioned over output image planes (ni, ci): every output pixel
  // belongs to exactly one plane, so the overlapping += accumulation is
  // race-free, and each pixel receives its contributions in the fixed
  // (ki, kj, y, xo) order regardless of how planes are distributed.
  ThreadPool::global().parallel_for(
      0, n * c, grain_for(static_cast<std::int64_t>(k) * k * oh * ow),
      // qdlint: shared-write(each chunk owns image planes [p0,p1); dc is read-only)
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t p = p0; p < p1; ++p) {
          const std::int64_t ni = p / c;
          const std::int64_t ci = p % c;
          float* img = od.data() + p * h * w;
          for (int ki = 0; ki < k; ++ki) {
            for (int kj = 0; kj < k; ++kj) {
              const std::int64_t row = (ci * k + ki) * k + kj;
              const float* in_row = dc.data() + row * col_width;
              // At stride 1, as in im2col, the in-bounds xo of a row form
              // one span, folded in as an in-place add run.
              const std::int64_t x_lo = std::clamp<std::int64_t>(pad - kj, 0, ow);
              const std::int64_t x_hi = std::clamp<std::int64_t>(w + pad - kj, x_lo, ow);
              for (std::int64_t y = 0; y < oh; ++y) {
                const std::int64_t iy = y * stride + ki - pad;
                if (iy < 0 || iy >= h) continue;
                const float* src = in_row + (ni * oh + y) * ow;
                if (stride == 1) {
                  float* dst = img + (iy * w + x_lo + kj - pad);
                  binary_run(simd_k, simd::BinaryOp::kAdd,
                             [](float acc, float v) { return acc + v; }, dst, dst, src + x_lo,
                             x_hi - x_lo, 1, 1);
                  continue;
                }
                for (std::int64_t xo = 0; xo < ow; ++xo) {
                  const std::int64_t ix = xo * stride + kj - pad;
                  if (ix < 0 || ix >= w) continue;
                  img[iy * w + ix] += src[xo];
                }
              }
            }
          }
        }
      });
  return out;
}

Tensor row_max(const Tensor& a) {
  if (a.rank() != 2) throw std::invalid_argument("row_max: rank must be 2");
  const std::int64_t n = a.dim(0), c = a.dim(1);
  if (c == 0) throw std::invalid_argument("row_max: empty rows");
  Tensor out = Tensor::uninitialized({n, 1});
  auto da = a.data();
  auto od = out.data();
  // qdlint: shared-write(each chunk owns output rows [i0,i1))
  ThreadPool::global().parallel_for(0, n, grain_for(c), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      float m = da[static_cast<std::size_t>(i * c)];
      for (std::int64_t j = 1; j < c; ++j) m = std::max(m, da[static_cast<std::size_t>(i * c + j)]);
      od[static_cast<std::size_t>(i)] = m;
    }
  });
  return out;
}

Tensor one_hot(const std::vector<int>& labels, int num_classes) {
  Tensor out({static_cast<std::int64_t>(labels.size()), num_classes});
  auto od = out.data();
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] < 0 || labels[i] >= num_classes) {
      throw std::invalid_argument("one_hot: label out of range");
    }
    od[i * static_cast<std::size_t>(num_classes) + static_cast<std::size_t>(labels[i])] = 1.0f;
  }
  return out;
}

std::vector<int> argmax_rows(const Tensor& a) {
  if (a.rank() != 2) throw std::invalid_argument("argmax_rows: rank must be 2");
  const std::int64_t n = a.dim(0), c = a.dim(1);
  std::vector<int> out(static_cast<std::size_t>(n));
  auto da = a.data();
  // qdlint: shared-write(each chunk owns out[i0,i1))
  ThreadPool::global().parallel_for(0, n, grain_for(c), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      int best = 0;
      float best_v = da[static_cast<std::size_t>(i * c)];
      for (std::int64_t j = 1; j < c; ++j) {
        const float v = da[static_cast<std::size_t>(i * c + j)];
        if (v > best_v) {
          best_v = v;
          best = static_cast<int>(j);
        }
      }
      out[static_cast<std::size_t>(i)] = best;
    }
  });
  return out;
}

}  // namespace quickdrop::kernels
