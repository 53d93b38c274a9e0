// Streaming StateAccumulator (nn/state_accumulator.h): single-lane folds
// reproduce a serial double-precision oracle bit for bit, the canonical
// 64-lane combine is bitwise-invariant across thread counts, fold_range is
// per-element identical to fold, and the lifecycle contract (finalize
// consumes, reset re-arms) is enforced.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "merge_oracle.h"
#include "nn/state.h"
#include "nn/state_accumulator.h"
#include "util/thread_pool.h"

namespace {

using quickdrop::Shape;
using quickdrop::nn::ModelState;
using quickdrop::nn::StateAccumulator;
using quickdrop::nn::StateError;
using quickdrop::nn::StateLayout;

float synth_value(std::int64_t i, float phase) {
  return 0.001f * static_cast<float>((i * 2654435761LL) % 2003) - 1.0f + phase;
}

// Spans several kStateBlock reduction blocks with a ragged tail.
const std::vector<Shape> kShapes = {{16, 3, 3, 3}, {16}, {200, 173}, {173}, {3}};

ModelState make_state(const std::shared_ptr<const StateLayout>& layout, float phase) {
  std::vector<float> values(static_cast<std::size_t>(layout->total()));
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = synth_value(static_cast<std::int64_t>(i), phase);
  }
  return {layout, std::move(values)};
}

void expect_bitwise_equal(const ModelState& a, const ModelState& b, const char* what) {
  ASSERT_EQ(a.numel(), b.numel());
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a.at(i)), std::bit_cast<std::uint32_t>(b.at(i)))
        << what << " diverges at flat index " << i;
  }
}

struct PoolScope {
  explicit PoolScope(int threads) : saved(quickdrop::num_threads()) {
    quickdrop::set_num_threads(threads);
  }
  ~PoolScope() { quickdrop::set_num_threads(saved); }
  int saved;
};

TEST(StateAccumulator, SingleLaneMatchesWeightedAverageBitwise) {
  const auto layout = StateLayout::of_shapes(kShapes);
  std::vector<ModelState> states;
  std::vector<float> weights;
  for (int c = 0; c < 7; ++c) {
    states.push_back(make_state(layout, 0.1f * static_cast<float>(c)));
    weights.push_back(0.05f + 0.11f * static_cast<float>(c));
  }
  const ModelState oracle = quickdrop::nn::testing::serial_weighted_average(states, weights);

  for (const int threads : {1, 4, 8}) {
    PoolScope pool(threads);
    StateAccumulator acc(layout, /*lanes=*/1);
    for (std::size_t c = 0; c < states.size(); ++c) {
      acc.fold(states[c], static_cast<double>(weights[c]));
    }
    const ModelState streamed = acc.finalize();
    expect_bitwise_equal(streamed, oracle, "single-lane streaming vs serial oracle");
  }
}

TEST(StateAccumulator, CanonicalLanesBitwiseInvariantAcrossThreads) {
  const auto layout = StateLayout::of_shapes(kShapes);
  std::vector<ModelState> states;
  for (int c = 0; c < 23; ++c) states.push_back(make_state(layout, 0.07f * c));

  ModelState reference;
  for (const int threads : {1, 4, 8}) {
    PoolScope pool(threads);
    StateAccumulator acc(layout);
    double total_weight = 0.0;
    for (std::size_t c = 0; c < states.size(); ++c) {
      const double w = static_cast<double>(1 + (c * 13) % 40);
      acc.fold(states[c], w, static_cast<int>((c * 29) % StateAccumulator::kLanes));
      total_weight += w;
    }
    ModelState merged = acc.finalize_scaled(1.0 / total_weight);
    if (reference.empty()) {
      reference = std::move(merged);
    } else {
      expect_bitwise_equal(merged, reference, "canonical 64-lane merge across threads");
    }
  }
}

TEST(StateAccumulator, FoldRangeMatchesFoldBitwise) {
  const auto layout = StateLayout::of_shapes(kShapes);
  const ModelState a = make_state(layout, 0.0f);
  const ModelState b = make_state(layout, 0.4f);

  StateAccumulator whole(layout);
  whole.fold(a, 3.0, 5);
  whole.fold(b, 2.0, 9);

  StateAccumulator blocked(layout);
  const auto& bounds = layout->block_bounds();
  for (const auto& [state, weight, lane] :
       {std::tuple{&a, 3.0, 5}, std::tuple{&b, 2.0, 9}}) {
    const auto data = state->data();
    for (std::size_t blk = 0; blk + 1 < bounds.size(); ++blk) {
      const std::int64_t lo = bounds[blk];
      blocked.fold_range(lane, lo, data.data() + lo, bounds[blk + 1] - lo, weight);
    }
  }
  expect_bitwise_equal(blocked.finalize_scaled(0.2), whole.finalize_scaled(0.2),
                       "fold_range block-by-block vs whole-state fold");
}

TEST(StateAccumulator, FinalizeScaledByOneMatchesFinalize) {
  const auto layout = StateLayout::of_shapes(kShapes);
  const ModelState a = make_state(layout, 0.0f);
  StateAccumulator acc(layout);
  acc.fold(a, 0.625, 3);
  const ModelState plain = acc.finalize();
  acc.reset();
  acc.fold(a, 0.625, 3);
  // Multiplying the double accumulator by exactly 1.0 cannot change bits.
  expect_bitwise_equal(acc.finalize_scaled(1.0), plain, "finalize_scaled(1.0) vs finalize");
}

TEST(StateAccumulator, ResetReArmsAndReproduces) {
  const auto layout = StateLayout::of_shapes(kShapes);
  const ModelState a = make_state(layout, 0.0f);
  const ModelState b = make_state(layout, 0.9f);
  StateAccumulator acc(layout);
  acc.fold(a, 1.5, 0);
  acc.fold(b, 2.5, 17);
  const ModelState first = acc.finalize_scaled(0.25);
  EXPECT_THROW(acc.fold(a, 1.0), StateError);  // consumed until reset
  acc.reset();
  EXPECT_EQ(acc.folds(), 0);
  acc.fold(a, 1.5, 0);
  acc.fold(b, 2.5, 17);
  expect_bitwise_equal(acc.finalize_scaled(0.25), first, "post-reset replay");
}

TEST(StateAccumulator, LifecycleAndArgumentErrors) {
  const auto layout = StateLayout::of_shapes(kShapes);
  EXPECT_THROW(StateAccumulator(layout, 3), StateError);    // not a power of two
  EXPECT_THROW(StateAccumulator(layout, 0), StateError);
  EXPECT_THROW(StateAccumulator(layout, 128), StateError);  // above kLanes

  StateAccumulator acc(layout, 8);
  const ModelState a = make_state(layout, 0.0f);
  EXPECT_THROW(acc.fold(a, 1.0, 8), StateError);   // lane out of range
  EXPECT_THROW(acc.fold(a, 1.0, -1), StateError);
  EXPECT_THROW(acc.finalize(), StateError);        // nothing folded
  acc.reset();

  // Layout-mismatched state.
  const auto other = StateLayout::of_shapes({{4, 4}});
  EXPECT_THROW(acc.fold(make_state(other, 0.0f), 1.0), StateError);

  EXPECT_FALSE(acc.lane_used(2));
  acc.fold(a, 1.0, 2);
  EXPECT_TRUE(acc.lane_used(2));
  EXPECT_EQ(acc.folds(), 1);
  EXPECT_GT(acc.memory_bytes(), 0);
}

}  // namespace
