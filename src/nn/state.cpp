#include "nn/state.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <utility>

#include "tensor/simd.h"
#include "util/thread_pool.h"

namespace quickdrop::nn {
namespace {

// Hardening caps for deserialize_state. Generous (a state of 2^31 floats is
// 8 GiB) but finite, so a corrupted length field cannot drive a near-infinite
// allocation before the payload check fires.
constexpr std::uint64_t kMaxParams = 1u << 20;
constexpr std::uint64_t kMaxRank = 16;
constexpr std::int64_t kMaxTotalNumel = std::int64_t{1} << 31;

// Serialized-state format v2: magic ("QDFS" + version), layout hash, shape
// manifest, one contiguous float payload. v1 (the pre-FlatState stream:
// count, then per-tensor rank/dims/floats) is still accepted on read.
constexpr std::uint64_t kStateMagicV2 = 0x5144'4653'0000'0002ULL;  // "QDFS" v2

std::uint64_t fnv1a_begin() { return 0xcbf29ce484222325ULL; }

void fnv1a_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001b3ULL;
  }
}

std::uint64_t hash_shapes(const std::vector<Shape>& shapes) {
  std::uint64_t h = fnv1a_begin();
  fnv1a_u64(h, shapes.size());
  for (const auto& shape : shapes) {
    fnv1a_u64(h, shape.size());
    for (const auto d : shape) fnv1a_u64(h, static_cast<std::uint64_t>(d));
  }
  return h;
}

void check_compatible(const FlatState& a, const FlatState& b, const char* context) {
  if (a.layout() == b.layout()) return;  // same manifest (or both empty)
  if (a.layout() && b.layout() && a.layout()->hash() == b.layout()->hash()) return;
  throw StateError(std::string(context) + ": state layout mismatch");
}

/// Sum of squares over the layout's hoisted fixed-block partition, combined
/// serially in block order.
double block_sum_squares(const StateLayout& layout,
                         const std::function<double(std::int64_t, std::int64_t)>& block_fn) {
  const std::int64_t num_blocks = layout.num_blocks();
  if (num_blocks == 0) return 0.0;
  const auto& bounds = layout.block_bounds();
  std::vector<double> partials(static_cast<std::size_t>(num_blocks), 0.0);
  ThreadPool::global().parallel_for(
      // qdlint: shared-write(each chunk writes its own disjoint partials[lo,hi) slice)
      0, num_blocks, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t b = lo; b < hi; ++b) {
          partials[static_cast<std::size_t>(b)] =
              block_fn(bounds[static_cast<std::size_t>(b)], bounds[static_cast<std::size_t>(b) + 1]);
        }
      });
  double acc = 0.0;
  for (const double p : partials) acc += p;
  return acc;
}

}  // namespace

StateLayout::StateLayout(std::vector<Shape> shapes) : shapes_(std::move(shapes)) {
  offsets_.reserve(shapes_.size() + 1);
  offsets_.push_back(0);
  for (const auto& shape : shapes_) {
    offsets_.push_back(offsets_.back() + quickdrop::numel(shape));
  }
  hash_ = hash_shapes(shapes_);
  // Hoist the fixed-block partition once per layout: reductions and the
  // weighted-average fold reuse these bounds across clients and rounds
  // instead of re-deriving begin/end per call.
  const std::int64_t n = offsets_.back();
  block_bounds_.reserve(static_cast<std::size_t>(n / kStateBlock) + 2);
  for (std::int64_t b = 0; b < n; b += kStateBlock) block_bounds_.push_back(b);
  block_bounds_.push_back(n);
}

std::shared_ptr<const StateLayout> StateLayout::of(Module& module) {
  std::vector<Shape> shapes;
  for (const auto& p : module.parameters()) shapes.push_back(p.value().shape());
  return of_shapes(std::move(shapes));
}

std::shared_ptr<const StateLayout> StateLayout::of_shapes(std::vector<Shape> shapes) {
  return std::shared_ptr<const StateLayout>(new StateLayout(std::move(shapes)));
}

FlatState::FlatState(std::shared_ptr<const StateLayout> layout) : layout_(std::move(layout)) {
  if (!layout_) throw StateError("FlatState: null layout");
  data_.assign(static_cast<std::size_t>(layout_->total()), 0.0f);
}

FlatState::FlatState(std::shared_ptr<const StateLayout> layout, std::vector<float> values)
    : layout_(std::move(layout)), data_(std::move(values)) {
  if (!layout_) throw StateError("FlatState: null layout");
  if (static_cast<std::int64_t>(data_.size()) != layout_->total()) {
    throw StateError("FlatState: payload size does not match layout");
  }
}

FlatState FlatState::from_tensors(std::span<const Tensor> tensors) {
  std::vector<Shape> shapes;
  shapes.reserve(tensors.size());
  std::size_t total = 0;
  for (const auto& t : tensors) {
    shapes.push_back(t.shape());
    total += static_cast<std::size_t>(t.numel());
  }
  std::vector<float> values;
  values.reserve(total);
  for (const auto& t : tensors) {
    const auto d = t.data();
    values.insert(values.end(), d.begin(), d.end());
  }
  return {StateLayout::of_shapes(std::move(shapes)), std::move(values)};
}

Tensor FlatState::tensor(std::size_t i) const {
  Tensor t(layout_->shape(i));
  const auto src = param(i);
  std::memcpy(t.data().data(), src.data(), src.size() * sizeof(float));
  return t;
}

ModelState state_of(Module& module) {
  ModelState state{StateLayout::of(module)};
  snapshot_into(module, state);
  return state;
}

void snapshot_into(Module& module, ModelState& state) {
  auto params = module.parameters();
  if (state.empty() || params.size() != state.size()) {
    throw StateError("snapshot_into: state layout does not match module");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto src = params[i].value().data();
    auto dst = state.param(i);
    if (src.size() != dst.size() ||
        params[i].value().shape() != state.layout()->shape(i)) {
      throw StateError("snapshot_into: parameter shape mismatch");
    }
    std::memcpy(dst.data(), src.data(), src.size() * sizeof(float));
  }
}

void load_state(Module& module, const ModelState& state) {
  auto params = module.parameters();
  if (params.size() != state.size()) {
    throw StateError("load_state: parameter count mismatch");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto dst = params[i].mutable_value().data();
    const auto src = state.param(i);
    if (src.size() != dst.size() ||
        params[i].value().shape() != state.layout()->shape(i)) {
      throw StateError("load_state: parameter shape mismatch");
    }
    std::memcpy(dst.data(), src.data(), src.size() * sizeof(float));
  }
}

ModelState zeros_like(const ModelState& state) {
  if (state.empty()) return {};
  return ModelState{state.layout()};
}

void axpy(ModelState& y, const ModelState& x, float a) {
  check_compatible(y, x, "axpy");
  auto yd = y.data();
  const auto xd = x.data();
  const auto& k = simd::active();
  ThreadPool::global().parallel_for(
      // qdlint: shared-write(each chunk writes its own disjoint yd[lo,hi) slice)
      0, y.numel(), grain_for(2), [&](std::int64_t lo, std::int64_t hi) {
        k.axpy(yd.data() + lo, xd.data() + lo, a, hi - lo);
      });
}

void scale(ModelState& state, float factor) {
  auto d = state.data();
  const auto& k = simd::active();
  ThreadPool::global().parallel_for(
      // qdlint: shared-write(each chunk writes its own disjoint d[lo,hi) slice)
      0, state.numel(), grain_for(1), [&](std::int64_t lo, std::int64_t hi) {
        k.scale(d.data() + lo, factor, hi - lo);
      });
}

ModelState subtract(const ModelState& a, const ModelState& b) {
  check_compatible(a, b, "subtract");
  if (a.empty()) return {};
  ModelState out{a.layout()};
  const auto ad = a.data(), bd = b.data();
  auto od = out.data();
  const auto& k = simd::active();
  ThreadPool::global().parallel_for(
      // qdlint: shared-write(each chunk writes its own disjoint od[lo,hi) slice)
      0, out.numel(), grain_for(2), [&](std::int64_t lo, std::int64_t hi) {
        k.subtract(od.data() + lo, ad.data() + lo, bd.data() + lo, hi - lo);
      });
  return out;
}

double l2_norm(const ModelState& state) {
  if (state.empty()) return 0.0;
  const auto d = state.data();
  const auto& k = simd::active();
  return std::sqrt(block_sum_squares(*state.layout(), [&](std::int64_t lo, std::int64_t hi) {
    return k.sum_squares(d.data() + lo, hi - lo);
  }));
}

double l2_distance(const ModelState& a, const ModelState& b) {
  check_compatible(a, b, "l2_distance");
  if (a.empty()) return 0.0;
  const auto ad = a.data(), bd = b.data();
  const auto& k = simd::active();
  // Per-element the float difference is formed first, then widened — the
  // same lane-structured fold as l2_norm over subtract(a, b), so the two
  // stay bitwise equal.
  return std::sqrt(block_sum_squares(*a.layout(), [&](std::int64_t lo, std::int64_t hi) {
    return k.sum_squared_diff(ad.data() + lo, bd.data() + lo, hi - lo);
  }));
}

bool all_finite(const ModelState& state) {
  const auto d = state.data();
  if (state.numel() == 0) return true;
  const auto& bounds = state.layout()->block_bounds();
  const std::int64_t num_blocks = state.layout()->num_blocks();
  std::vector<std::uint8_t> finite(static_cast<std::size_t>(num_blocks), 1);
  ThreadPool::global().parallel_for(
      // qdlint: shared-write(each chunk writes its own disjoint finite[lo,hi) slice)
      0, num_blocks, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t b = lo; b < hi; ++b) {
          const std::int64_t begin = bounds[static_cast<std::size_t>(b)];
          const std::int64_t end = bounds[static_cast<std::size_t>(b) + 1];
          for (std::int64_t i = begin; i < end; ++i) {
            if (!std::isfinite(d[static_cast<std::size_t>(i)])) {
              finite[static_cast<std::size_t>(b)] = 0;
              break;
            }
          }
        }
      });
  for (const auto f : finite) {
    if (!f) return false;
  }
  return true;
}

std::int64_t state_numel(const ModelState& state) { return state.numel(); }

std::int64_t state_bytes(const ModelState& state) {
  return state.numel() * static_cast<std::int64_t>(sizeof(float));
}

std::vector<std::uint8_t> serialize_state(const ModelState& state) {
  std::vector<std::uint8_t> bytes;
  auto put_u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put_u64(kStateMagicV2);
  if (state.empty()) {
    put_u64(hash_shapes({}));
    put_u64(0);  // parameter count
    put_u64(0);  // total numel
    return bytes;
  }
  const auto& layout = *state.layout();
  put_u64(layout.hash());
  put_u64(layout.size());
  for (std::size_t i = 0; i < layout.size(); ++i) {
    const auto& shape = layout.shape(i);
    put_u64(shape.size());
    for (const auto d : shape) put_u64(static_cast<std::uint64_t>(d));
  }
  put_u64(static_cast<std::uint64_t>(layout.total()));
  const auto data = state.data();
  const auto offset = bytes.size();
  bytes.resize(offset + data.size() * sizeof(float));
  std::memcpy(bytes.data() + offset, data.data(), data.size() * sizeof(float));
  return bytes;
}

namespace {

/// Cursor over a little-endian byte stream with typed failures.
struct ByteReader {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;

  std::uint64_t u64(const char* what) {
    if (pos + 8 > bytes.size()) {
      throw StateError(std::string("deserialize_state: truncated reading ") + what);
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes[pos + static_cast<std::size_t>(i)]) << (8 * i);
    }
    pos += 8;
    return v;
  }

  Shape shape() {
    const auto rank = u64("rank");
    if (rank > kMaxRank) throw StateError("deserialize_state: rank exceeds limit");
    Shape s(rank);
    for (auto& d : s) {
      const auto v = u64("dim");
      if (v > static_cast<std::uint64_t>(kMaxTotalNumel)) {
        throw StateError("deserialize_state: dimension exceeds limit");
      }
      d = static_cast<std::int64_t>(v);
    }
    return s;
  }
};

std::int64_t checked_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (const auto d : shape) {
    if (d < 0) throw StateError("deserialize_state: negative dimension");
    if (d > 0 && n > kMaxTotalNumel / d) {
      throw StateError("deserialize_state: state size overflows limit");
    }
    n *= d;
  }
  return n;
}

ModelState read_payload(ByteReader& r, std::vector<Shape> shapes, std::int64_t total) {
  std::vector<float> values(static_cast<std::size_t>(total));
  const std::size_t nbytes = values.size() * sizeof(float);
  if (r.pos + nbytes > r.bytes.size()) {
    throw StateError("deserialize_state: truncated payload");
  }
  std::memcpy(values.data(), r.bytes.data() + r.pos, nbytes);
  r.pos += nbytes;
  if (r.pos != r.bytes.size()) throw StateError("deserialize_state: trailing bytes");
  return {StateLayout::of_shapes(std::move(shapes)), std::move(values)};
}

ModelState deserialize_v2(ByteReader& r) {
  const auto stored_hash = r.u64("layout hash");
  const auto count = r.u64("parameter count");
  if (count > kMaxParams) throw StateError("deserialize_state: parameter count exceeds limit");
  std::vector<Shape> shapes;
  shapes.reserve(count);
  std::int64_t total = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    shapes.push_back(r.shape());
    const auto n = checked_numel(shapes.back());
    if (total > kMaxTotalNumel - n) {
      throw StateError("deserialize_state: state size overflows limit");
    }
    total += n;
  }
  const auto declared_total = r.u64("total numel");
  if (declared_total != static_cast<std::uint64_t>(total)) {
    throw StateError("deserialize_state: total numel does not match manifest");
  }
  if (stored_hash != hash_shapes(shapes)) {
    throw StateError("deserialize_state: layout hash mismatch");
  }
  if (count == 0) {
    if (r.pos != r.bytes.size()) throw StateError("deserialize_state: trailing bytes");
    return {};
  }
  return read_payload(r, std::move(shapes), total);
}

/// Pre-FlatState stream: count, then per-tensor (rank, dims..., floats).
ModelState deserialize_v1(ByteReader& r) {
  const auto count = r.u64("parameter count");
  if (count > kMaxParams) throw StateError("deserialize_state: parameter count exceeds limit");
  std::vector<Shape> shapes;
  std::vector<float> values;
  std::int64_t total = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    shapes.push_back(r.shape());
    const auto n = checked_numel(shapes.back());
    if (total > kMaxTotalNumel - n) {
      throw StateError("deserialize_state: state size overflows limit");
    }
    total += n;
    const std::size_t nbytes = static_cast<std::size_t>(n) * sizeof(float);
    if (r.pos + nbytes > r.bytes.size()) {
      throw StateError("deserialize_state: truncated payload");
    }
    const std::size_t old = values.size();
    values.resize(old + static_cast<std::size_t>(n));
    std::memcpy(values.data() + old, r.bytes.data() + r.pos, nbytes);
    r.pos += nbytes;
  }
  if (r.pos != r.bytes.size()) throw StateError("deserialize_state: trailing bytes");
  if (count == 0) return {};
  return {StateLayout::of_shapes(std::move(shapes)), std::move(values)};
}

}  // namespace

ModelState deserialize_state(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  if (bytes.size() >= 8) {
    ByteReader peek{bytes};
    if (peek.u64("magic") == kStateMagicV2) {
      r.pos = 8;
      return deserialize_v2(r);
    }
  }
  return deserialize_v1(r);
}

}  // namespace quickdrop::nn
