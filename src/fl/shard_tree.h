// Sharded hierarchical aggregation: leaf shards → regional aggregators → root.
//
// The resilient round engine's aggregator: every accepted update is folded
// immediately into a per-lane double accumulator (nn/state_accumulator.h) and
// discarded, so the merge itself holds O(params) server memory, independent
// of cohort size.
//
// Topology and determinism:
//
//   * Clients map to one of the 64 canonical leaf lanes by an id hash
//     (lane_of — splitmix64 finalizer, independent of shard count), and lanes
//     group into `shards` aligned, contiguous runs of 64/shards lanes
//     (shard_of). Because a power-of-two shard count owns aligned subtrees of
//     the accumulator's fixed binary combine tree, the root merge performs
//     the exact same per-element double-add tree for ANY --shards setting:
//     the shard knob re-partitions *ownership and accounting*, never result
//     bits.
//   * Within a lane, updates fold in arrival order. The engine delivers
//     accepted updates in cohort order (deterministic per round seed), so the
//     fold order — and therefore the merged bits — is identical whatever its
//     wave size, at any thread count.
//   * `fanout` configures the simulated regional-aggregator topology above
//     the shards (levels(), per-shard accounting for the scale bench); like
//     `shards` it never changes bits.
//
// Quantized transport decodes *directly into* the accumulator:
// probe_quantized streams the wire frame through fl/quantize's block decoder,
// reconstructs `global + delta` one block at a time in O(kStateBlock) scratch
// and reports the validation stats (finiteness, update norm — bitwise equal
// to all_finite/l2_distance over a materialized decode); fold_quantized
// re-streams the frame and folds the reconstruction. Callers MUST probe (or
// otherwise fully validate the frame) before folding: probe throws
// nn::StateError on malformed frames without touching the accumulator,
// whereas a mid-stream decode failure inside fold_quantized would leave the
// lane partially folded.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fl/quantize.h"
#include "nn/state_accumulator.h"

namespace quickdrop::fl {

/// Shard-tree topology, threaded from the CLI (--shards / --shard-fanout)
/// through QuickDropConfig/ResilientConfig into the engine.
struct AggregationConfig {
  /// Leaf shard count. Must be a power of two in [1, 64] so every shard owns
  /// an aligned subtree of the canonical 64-lane combine (see header).
  int shards = 1;
  /// Regional-aggregator fanout above the shards, in [2, 64]. Topology /
  /// accounting only — never changes result bits.
  int fanout = 8;

  /// Throws std::invalid_argument on an unsupported topology.
  void validate() const;
};

class ShardTree {
 public:
  ShardTree(std::shared_ptr<const nn::StateLayout> layout, AggregationConfig config);

  /// Deterministic client → leaf lane assignment (id hash into [0, 64);
  /// independent of shard count).
  static int lane_of(int client_id);
  /// The shard owning a client's lane: aligned runs of 64/shards lanes.
  [[nodiscard]] int shard_of(int client_id) const;

  /// Folds one raw fp32 update and forgets it: acc += weight * state.
  void fold(int client_id, const nn::ModelState& state, double weight);

  /// Validation stats of a quantized frame's reconstruction `global + delta`
  /// without materializing it. `finite` matches nn::all_finite over the
  /// reconstruction; `norm` matches nn::l2_distance(reconstruction, global)
  /// bit-for-bit. Throws nn::StateError on a malformed frame (the engine's
  /// quarantine path) — the accumulator is untouched either way.
  struct WireProbe {
    bool finite = false;
    double norm = 0.0;
  };
  WireProbe probe_quantized(std::span<const std::uint8_t> wire, const nn::ModelState& global);

  /// Decodes the frame again and folds the reconstruction block-by-block into
  /// the client's lane, O(kQuantBlock) scratch. The frame must have passed
  /// probe_quantized (see header).
  void fold_quantized(int client_id, std::span<const std::uint8_t> wire,
                      const nn::ModelState& global, double weight);

  /// Root merge: collapses shards through the fixed combine tree and scales,
  /// o[i] = (float)(acc[i] * scale) — the engine passes 1 / total_weight.
  /// Fold again only after reset().
  nn::ModelState finalize(double scale);

  /// Re-arms the tree for the next round; lane allocations are kept.
  void reset();

  [[nodiscard]] const AggregationConfig& config() const { return config_; }
  /// Aggregation hops client → root: 1 (leaf → shard) + shard → root hops
  /// through `fanout`-ary regional aggregators.
  [[nodiscard]] int levels() const;
  /// Updates folded since reset(), total and per shard.
  [[nodiscard]] std::int64_t folds() const { return folds_; }
  [[nodiscard]] std::int64_t shard_folds(int shard) const;
  /// Accumulator + scratch bytes — the scale bench's peak-memory accounting.
  [[nodiscard]] std::int64_t memory_bytes() const;

 private:
  AggregationConfig config_;
  nn::StateAccumulator acc_;
  std::vector<std::int64_t> shard_folds_;
  std::vector<float> scratch_;  ///< kStateBlock reconstruction scratch
  std::int64_t folds_ = 0;
};

}  // namespace quickdrop::fl
