// The parameter plane: flat, contiguous model states.
//
// A model state is ONE contiguous float buffer (`FlatState`) plus a shared,
// immutable shape manifest (`StateLayout`) describing how the buffer splits
// into parameters. Every layer above autograd — FedAvg aggregation, SGA /
// recovery rounds, FedEraser's per-round stores, checkpointing, the serve
// executor — moves states through this one representation, so the hot
// aggregation loops are single flat passes instead of per-tensor walks.
//
// Ownership: FlatState owns its buffer; copies are deep (unlike Tensor
// handles, a copied state never aliases the original). The layout is shared
// via shared_ptr and immutable, so states derived from one another
// (zeros_like, subtract, deserialization with a matching hash, an
// accumulator's finalize) reuse a single manifest instead of re-describing
// shapes per state.
//
// Determinism: every kernel here parallelizes over util::ThreadPool with
// fixed-block partitioning — block boundaries depend only on the element
// count, never on the pool size — and reductions combine per-block partials
// serially in block order. Results are bitwise-identical at any --threads.
// See DESIGN.md §11 for the full contract.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/module.h"

namespace quickdrop::nn {

/// Fixed reduction/aggregation block: block boundaries depend only on the
/// element count — never on the pool size — so every state kernel's partition
/// (and therefore its result bits) is identical at any --threads setting.
inline constexpr std::int64_t kStateBlock = 1 << 14;

/// Malformed or incompatible serialized state (truncated, oversized,
/// shape-mismatched, corrupt). Derives from std::invalid_argument so existing
/// catch sites keep working.
struct StateError : std::invalid_argument {
  explicit StateError(const std::string& what) : std::invalid_argument(what) {}
};

/// Immutable shape manifest of a model state: parameter shapes in order,
/// their offsets into the flat buffer, and an FNV-1a hash over the shape list
/// used as a cheap compatibility check (server/client, checkpoint/model).
/// Always held by shared_ptr; states with equal hashes are layout-compatible.
class StateLayout {
 public:
  /// Manifest of a module's parameters, in Module::parameters() order.
  static std::shared_ptr<const StateLayout> of(Module& module);
  /// Manifest from an explicit shape list.
  static std::shared_ptr<const StateLayout> of_shapes(std::vector<Shape> shapes);

  /// Number of parameters.
  [[nodiscard]] std::size_t size() const { return shapes_.size(); }
  [[nodiscard]] const Shape& shape(std::size_t i) const { return shapes_[i]; }
  [[nodiscard]] const std::vector<Shape>& shapes() const { return shapes_; }
  /// First flat index of parameter i; offset(size()) == total().
  [[nodiscard]] std::int64_t offset(std::size_t i) const { return offsets_[i]; }
  [[nodiscard]] std::int64_t numel(std::size_t i) const {
    return offsets_[i + 1] - offsets_[i];
  }
  /// Total scalar entries across all parameters.
  [[nodiscard]] std::int64_t total() const { return offsets_.back(); }
  /// FNV-1a over (count, rank, dims...) — equal iff the shape lists match.
  [[nodiscard]] std::uint64_t hash() const { return hash_; }

  /// Hoisted fixed-block partition: bounds of kStateBlock-sized blocks over
  /// [0, total()), computed once per layout and reused by every reduction and
  /// by the accumulators' folds across clients and rounds (block b spans
  /// [block_bounds()[b], block_bounds()[b+1])).
  [[nodiscard]] const std::vector<std::int64_t>& block_bounds() const { return block_bounds_; }
  [[nodiscard]] std::int64_t num_blocks() const {
    return static_cast<std::int64_t>(block_bounds_.size()) - 1;
  }

 private:
  explicit StateLayout(std::vector<Shape> shapes);
  std::vector<Shape> shapes_;
  std::vector<std::int64_t> offsets_;  ///< size()+1 entries, offsets_[0] == 0
  std::vector<std::int64_t> block_bounds_;  ///< num_blocks()+1 entries
  std::uint64_t hash_ = 0;
};

/// A model state: one contiguous float buffer laid out by a shared
/// StateLayout. Default-constructed states are *empty* (no layout, no data);
/// the FL substrate uses empty states as "client did not participate".
class FlatState {
 public:
  FlatState() = default;
  /// All-zero state of the given layout.
  explicit FlatState(std::shared_ptr<const StateLayout> layout);
  /// State adopting `values`; values.size() must equal layout->total().
  FlatState(std::shared_ptr<const StateLayout> layout, std::vector<float> values);

  /// Deep-copies the tensors into a fresh flat buffer (interop shim; the
  /// checkpoint v3 loader and tests use it).
  static FlatState from_tensors(std::span<const Tensor> tensors);

  [[nodiscard]] bool empty() const { return layout_ == nullptr; }
  /// Number of parameters (0 when empty). Mirrors the old vector<Tensor>
  /// call sites that sized states in parameters.
  [[nodiscard]] std::size_t size() const { return layout_ ? layout_->size() : 0; }
  /// Total scalar entries.
  [[nodiscard]] std::int64_t numel() const { return layout_ ? layout_->total() : 0; }
  [[nodiscard]] const std::shared_ptr<const StateLayout>& layout() const { return layout_; }

  /// The whole flat buffer.
  [[nodiscard]] std::span<float> data() { return {data_.data(), data_.size()}; }
  [[nodiscard]] std::span<const float> data() const { return {data_.data(), data_.size()}; }

  /// The slice of the buffer holding parameter i.
  [[nodiscard]] std::span<float> param(std::size_t i) {
    return data().subspan(static_cast<std::size_t>(layout_->offset(i)),
                          static_cast<std::size_t>(layout_->numel(i)));
  }
  [[nodiscard]] std::span<const float> param(std::size_t i) const {
    return data().subspan(static_cast<std::size_t>(layout_->offset(i)),
                          static_cast<std::size_t>(layout_->numel(i)));
  }

  /// Parameter i materialized as a standalone Tensor (deep copy).
  [[nodiscard]] Tensor tensor(std::size_t i) const;

  /// Flat element access (spans all parameters).
  [[nodiscard]] float at(std::int64_t i) const {
    return data_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] float& at(std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }

 private:
  std::shared_ptr<const StateLayout> layout_;
  std::vector<float> data_;
};

/// Deep-copied flat snapshot of the module's parameters. Builds a fresh
/// layout; hot loops should hoist StateLayout::of() once and use
/// snapshot_into() instead.
using ModelState = FlatState;

/// Snapshot of the module's current parameters.
ModelState state_of(Module& module);

/// Copies the module's parameters into `state` without allocating: `state`
/// must carry a layout matching the module (same shapes). Throws StateError
/// on mismatch.
void snapshot_into(Module& module, ModelState& state);

/// Writes a state into the module's parameters (single memcpy per
/// parameter). Shapes must match.
void load_state(Module& module, const ModelState& state);

/// All-zero state sharing `state`'s layout.
ModelState zeros_like(const ModelState& state);

/// y += a * x (elementwise over the flat buffers).
void axpy(ModelState& y, const ModelState& x, float a);

/// s *= factor.
void scale(ModelState& state, float factor);

/// a - b as a new state sharing a's layout.
ModelState subtract(const ModelState& a, const ModelState& b);

/// Euclidean norm over all entries.
double l2_norm(const ModelState& state);

/// ||a - b||_2 without materializing the difference (the resilient engine's
/// per-upload validation path). Bitwise-equal to l2_norm(subtract(a, b)).
double l2_distance(const ModelState& a, const ModelState& b);

/// True when every entry is finite (no NaN/Inf). The resilient FL engine
/// uses this to quarantine corrupted client uploads and to enforce that
/// aggregated global states stay finite.
bool all_finite(const ModelState& state);

/// Number of scalar entries.
std::int64_t state_numel(const ModelState& state);

/// Bytes occupied by the raw float payload (used for storage accounting).
std::int64_t state_bytes(const ModelState& state);

/// Binary (de)serialization, e.g. for checkpointing experiments. Writes
/// format v2 (magic + layout hash + shape manifest + contiguous payload);
/// deserialize_state also accepts the pre-FlatState v1 stream (count,
/// per-tensor rank/dims/floats) and throws StateError on truncated,
/// oversized, or shape-inconsistent input — never partial state.
std::vector<std::uint8_t> serialize_state(const ModelState& state);
ModelState deserialize_state(std::span<const std::uint8_t> bytes);

}  // namespace quickdrop::nn
