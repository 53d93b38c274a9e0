// Streaming weighted-average accumulator over the flat parameter plane: the
// one merge of client states. Callers fold one update at a time into
// per-lane double accumulators and discard it, so a merge's peak memory is
// O(lanes × params) regardless of how many clients report.
//
// Canonical fold order (the bitwise-determinism contract, DESIGN.md §16):
//
//   * The accumulator owns a fixed set of `lanes()` leaf lanes (kLanes == 64
//     canonically). Each fold targets one lane; within a lane, elements
//     accumulate in fold-call order through the `wavg_fold` kernel chain
//     (acc[i] += w * (double)x[i]).
//   * finalize() combines the lanes bottom-up through a FIXED binary tree
//     (stride 1, 2, 4, ... pairwise double adds). A pair with one absent side
//     propagates the present buffer untouched — no arithmetic against zeros —
//     so the result bits depend only on (lane, fold order within lane), never
//     on how many lanes happen to be populated or how lanes are grouped into
//     shards above this layer (fl/shard_tree.h groups lanes into aligned
//     subtrees, which the fixed tree merges identically for any shard count).
//   * Every elementwise pass parallelizes over the thread pool; per-element
//     chains are independent of the chunk cut, so results are bitwise
//     identical at any --threads.
//
// A single-lane accumulator fed in client index order reproduces a serial
// double-precision weighted sum rounded once to float, bit for bit —
// tests/nn/state_accumulator_test.cpp pins this against a test-local oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/state.h"

namespace quickdrop::nn {

class StateAccumulator {
 public:
  /// Canonical leaf-lane count: the engine always folds through 64 lanes so
  /// the merge bits are invariant under the --shards topology knob.
  static constexpr int kLanes = 64;

  /// `lanes` must be a power of two in [1, kLanes]. Lane buffers are
  /// allocated lazily on first fold, so an accumulator only pays for the
  /// lanes its cohort actually lands in.
  explicit StateAccumulator(std::shared_ptr<const StateLayout> layout, int lanes = kLanes);

  [[nodiscard]] int lanes() const { return lanes_; }
  [[nodiscard]] const std::shared_ptr<const StateLayout>& layout() const { return layout_; }

  /// acc_lane[i] += weight * (double)state[i] over the whole flat buffer.
  /// Weights are used as given (raw |D_c| in the streaming engine, where the
  /// normalizer is only known after the last fold — see finalize_scaled).
  void fold(const ModelState& state, double weight, int lane = 0);

  /// Same fold restricted to the flat sub-range [offset, offset + len):
  /// the quantized-transport decode path reconstructs one wire block at a
  /// time and folds it here without ever materializing a full fp32 state.
  /// Per-element the chain is identical to fold(), so folding a state block
  /// by block (each element exactly once) produces the same bits.
  void fold_range(int lane, std::int64_t offset, const float* x, std::int64_t len, double weight);

  /// True when `lane` has received at least one fold since reset().
  [[nodiscard]] bool lane_used(int lane) const;
  /// Whole-state fold() calls since reset() (fold_range is not counted; the
  /// shard tree tracks per-client counts itself).
  [[nodiscard]] std::int64_t folds() const { return folds_; }

  /// Collapses the lane tree and rounds the root to float: o[i] = (float)acc[i].
  /// Throws StateError when nothing was folded. The accumulator is consumed:
  /// fold again only after reset().
  ModelState finalize();

  /// Collapse, then o[i] = (float)(acc[i] * scale) in one pass — the
  /// streaming finalize for raw-weight folds (scale = 1 / total_weight).
  ModelState finalize_scaled(double scale);

  /// Re-zeroes every allocated lane (allocations are kept for reuse across
  /// rounds) and re-arms folding after a finalize.
  void reset();

  /// Bytes held in lane buffers — the bench's peak-memory accounting.
  [[nodiscard]] std::int64_t memory_bytes() const;

 private:
  std::vector<double>& lane_buffer(int lane);
  void check_lane(int lane) const;
  /// Runs the fixed binary-tree combine; afterwards lane 0 holds the root.
  /// Returns false when no lane was populated.
  bool collapse();

  std::shared_ptr<const StateLayout> layout_;
  std::int64_t total_ = 0;
  int lanes_ = kLanes;
  std::vector<std::vector<double>> buffers_;  ///< lazily allocated, one per lane
  std::vector<std::uint8_t> present_;         ///< lane received a fold since reset
  std::int64_t folds_ = 0;
  bool finalized_ = false;
};

}  // namespace quickdrop::nn
