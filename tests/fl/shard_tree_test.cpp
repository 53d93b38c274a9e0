// ShardTree (fl/shard_tree.h): the streaming sharded merge is bitwise
// invariant across shard counts {1,2,8,64} × thread counts {1,4,8}; the
// quantized probe reproduces l2_distance/all_finite bit for bit;
// fold_quantized equals decode-then-fold; malformed frames are rejected
// before any lane is touched; and full resilient rounds produce identical
// bits whether the engine runs small waves (no outlier rule) or the whole
// cohort as one wave (outlier rule on), under faults and quantized transport
// alike.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/resilient.h"
#include "fl/quantize.h"
#include "fl/shard_tree.h"
#include "nn/convnet.h"
#include "nn/state.h"
#include "util/thread_pool.h"

namespace quickdrop::fl {
namespace {

using quickdrop::Shape;
using quickdrop::nn::ModelState;
using quickdrop::nn::StateLayout;

float synth_value(std::int64_t i, float phase) {
  return 0.001f * static_cast<float>((i * 2654435761LL) % 2003) - 1.0f + phase;
}

// Several kStateBlock blocks with a ragged tail; kQuantBlock divides
// kStateBlock, so wire blocks land inside reduction blocks.
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

TEST(AggregationConfigTest, Validation) {
  EXPECT_NO_THROW((AggregationConfig{.shards = 1, .fanout = 8}.validate()));
  EXPECT_NO_THROW((AggregationConfig{.shards = 64, .fanout = 2}.validate()));
  EXPECT_THROW((AggregationConfig{.shards = 3, .fanout = 8}.validate()), std::invalid_argument);
  EXPECT_THROW((AggregationConfig{.shards = 0, .fanout = 8}.validate()), std::invalid_argument);
  EXPECT_THROW((AggregationConfig{.shards = 128, .fanout = 8}.validate()),
               std::invalid_argument);
  EXPECT_THROW((AggregationConfig{.shards = 4, .fanout = 1}.validate()), std::invalid_argument);
  EXPECT_THROW((AggregationConfig{.shards = 4, .fanout = 65}.validate()), std::invalid_argument);
}

TEST(ShardTreeTest, TopologyAccounting) {
  const auto layout = StateLayout::of_shapes(kShapes);
  ShardTree tree(layout, {.shards = 8, .fanout = 2});
  EXPECT_EQ(tree.levels(), 1 + 3);  // 8 shards through fanout-2 regionals
  for (int c = 0; c < 200; ++c) {
    const int lane = ShardTree::lane_of(c);
    ASSERT_GE(lane, 0);
    ASSERT_LT(lane, 64);
    EXPECT_EQ(tree.shard_of(c), lane * 8 / 64);
  }
  const ModelState s = make_state(layout, 0.0f);
  tree.fold(3, s, 1.0);
  tree.fold(4, s, 1.0);
  EXPECT_EQ(tree.folds(), 2);
  std::int64_t per_shard = 0;
  for (int shard = 0; shard < 8; ++shard) per_shard += tree.shard_folds(shard);
  EXPECT_EQ(per_shard, 2);
  EXPECT_GT(tree.memory_bytes(), 0);
}

TEST(ShardTreeTest, MergeBitsInvariantAcrossShardAndThreadCounts) {
  const auto layout = StateLayout::of_shapes(kShapes);
  std::vector<ModelState> states;
  double total_weight = 0.0;
  for (int c = 0; c < 37; ++c) {
    states.push_back(make_state(layout, 0.03f * static_cast<float>(c)));
    total_weight += static_cast<double>(1 + c % 9);
  }

  ModelState reference;
  for (const int threads : {1, 4, 8}) {
    PoolScope pool(threads);
    for (const int shards : {1, 2, 8, 64}) {
      ShardTree tree(layout, {.shards = shards, .fanout = 8});
      for (int c = 0; c < static_cast<int>(states.size()); ++c) {
        tree.fold(c, states[static_cast<std::size_t>(c)], static_cast<double>(1 + c % 9));
      }
      ModelState merged = tree.finalize(1.0 / total_weight);
      if (reference.empty()) {
        reference = std::move(merged);
      } else {
        expect_bitwise_equal(merged, reference, "shard/thread-count sweep");
      }
    }
  }
}

TEST(ShardTreeTest, ProbeMatchesMaterializedValidationBitwise) {
  const auto layout = StateLayout::of_shapes(kShapes);
  const ModelState global = make_state(layout, 0.0f);
  const ModelState client = make_state(layout, 0.25f);
  ShardTree tree(layout, {.shards = 4, .fanout = 8});

  for (const Codec codec : {Codec::kInt8, Codec::kBf16}) {
    const auto wire = encode_delta(nn::subtract(client, global), codec);
    // The buffered engine's validation path: materialize global + delta,
    // then all_finite / l2_distance.
    const ModelState delta = decode_delta(wire, layout);
    ModelState recon = global;
    nn::axpy(recon, delta, 1.0f);
    const auto probe = tree.probe_quantized(wire, global);
    EXPECT_EQ(probe.finite, nn::all_finite(recon));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(probe.norm),
              std::bit_cast<std::uint64_t>(nn::l2_distance(recon, global)));
  }
}

TEST(ShardTreeTest, ProbeFlagsNonFiniteReconstruction) {
  const auto layout = StateLayout::of_shapes(kShapes);
  const ModelState global = make_state(layout, 0.0f);
  ModelState poisoned = make_state(layout, 0.25f);
  poisoned.data()[123] = std::numeric_limits<float>::quiet_NaN();
  ShardTree tree(layout, {.shards = 1, .fanout = 8});
  // bf16 keeps NaN payloads representable on the wire.
  const auto wire = encode_delta(nn::subtract(poisoned, global), Codec::kBf16);
  const auto probe = tree.probe_quantized(wire, global);
  EXPECT_FALSE(probe.finite);
}

TEST(ShardTreeTest, FoldQuantizedMatchesDecodeThenFoldBitwise) {
  const auto layout = StateLayout::of_shapes(kShapes);
  const ModelState global = make_state(layout, 0.0f);

  for (const Codec codec : {Codec::kInt8, Codec::kBf16}) {
    ShardTree streamed(layout, {.shards = 8, .fanout = 8});
    ShardTree buffered(layout, {.shards = 8, .fanout = 8});
    double total_weight = 0.0;
    for (int c = 0; c < 11; ++c) {
      const ModelState client = make_state(layout, 0.1f * static_cast<float>(c + 1));
      const auto wire = encode_delta(nn::subtract(client, global), codec);
      const double w = static_cast<double>(2 + c);
      streamed.probe_quantized(wire, global);
      streamed.fold_quantized(c, wire, global, w);
      ModelState recon = global;
      nn::axpy(recon, decode_delta(wire, layout), 1.0f);
      buffered.fold(c, recon, w);
      total_weight += w;
    }
    expect_bitwise_equal(streamed.finalize(1.0 / total_weight),
                         buffered.finalize(1.0 / total_weight),
                         "decode-into-accumulator vs decode-then-fold");
  }
}

TEST(ShardTreeTest, MalformedFrameQuarantinedBeforeAnyFold) {
  const auto layout = StateLayout::of_shapes(kShapes);
  const ModelState global = make_state(layout, 0.0f);
  const ModelState client = make_state(layout, 0.2f);
  auto wire = encode_delta(nn::subtract(client, global), Codec::kInt8);
  wire.resize(wire.size() / 2);  // truncated mid-frame

  ShardTree tree(layout, {.shards = 4, .fanout = 8});
  EXPECT_THROW(tree.probe_quantized(wire, global), nn::StateError);

  // The failed probe left no trace: folding a good update afterwards gives
  // the same bits as a tree that never saw the bad frame.
  ShardTree fresh(layout, {.shards = 4, .fanout = 8});
  const auto good = encode_delta(nn::subtract(client, global), Codec::kInt8);
  tree.probe_quantized(good, global);
  tree.fold_quantized(7, good, global, 3.0);
  fresh.probe_quantized(good, global);
  fresh.fold_quantized(7, good, global, 3.0);
  expect_bitwise_equal(tree.finalize(1.0 / 3.0), fresh.finalize(1.0 / 3.0),
                       "post-quarantine fold");
}

// --- Engine-level identity: full resilient rounds through the tree. ---

data::SyntheticSpec tiny_spec() {
  data::SyntheticSpec spec;
  spec.num_classes = 3;
  spec.channels = 1;
  spec.image_size = 8;
  spec.train_per_class = 20;
  spec.test_per_class = 10;
  spec.noise = 0.3f;
  spec.max_shift = 1;
  spec.seed = 9;
  return spec;
}

nn::ConvNetConfig tiny_net() {
  nn::ConvNetConfig cfg;
  cfg.in_channels = 1;
  cfg.image_size = 8;
  cfg.num_classes = 3;
  cfg.width = 8;
  cfg.depth = 1;
  return cfg;
}

struct Fixture {
  data::TrainTest tt = data::make_synthetic(tiny_spec());
  std::vector<data::Dataset> clients;
  ModelFactory factory;
  std::unique_ptr<nn::Module> scratch;
  ModelState initial;  ///< pinned start state: the engine mutates `scratch`

  Fixture() {
    Rng prng(1);
    clients = data::materialize(tt.train, data::iid_partition(tt.train, 6, prng));
    auto shared_rng = std::make_shared<Rng>(11);
    factory = [rng = shared_rng]() { return nn::make_convnet(tiny_net(), *rng); };
    scratch = factory();
    initial = nn::state_of(*scratch);
  }

  ModelState run(const ResilientConfig& cfg, CostMeter* cost_out = nullptr) {
    SgdLocalUpdate update(2, 8, 0.1f);
    CostMeter cost;
    Rng rng(5);
    ModelState state = run_resilient(*scratch, initial, clients, update, cfg, rng, cost);
    if (cost_out) *cost_out = cost;
    return state;
  }
};

ResilientConfig engine_config() {
  ResilientConfig cfg{.rounds = 3, .participation = 1.0f};
  FaultRates rates;
  rates.crash = 0.15f;
  rates.corrupt_nan = 0.1f;
  cfg.faults = FaultPlan(77, rates);
  cfg.defense.min_quorum = 0.3f;
  cfg.defense.max_round_attempts = 3;
  return cfg;
}

TEST(ShardTreeEngineTest, RoundBitsInvariantAcrossShardsThreadsAndTransport) {
  Fixture f;
  for (const Codec codec : {Codec::kNone, Codec::kInt8}) {
    ModelState reference;
    for (const int threads : {1, 4}) {
      PoolScope pool(threads);
      for (const int shards : {1, 4, 64}) {
        auto cfg = engine_config();
        cfg.transport.codec = codec;
        cfg.aggregation = {.shards = shards, .fanout = 4};
        if (threads > 1) cfg.client_model_factory = f.factory;
        ModelState state = f.run(cfg);
        if (reference.empty()) {
          reference = std::move(state);
        } else {
          expect_bitwise_equal(state, reference, "engine shard/thread sweep");
        }
      }
    }
  }
}

TEST(ShardTreeEngineTest, StreamingMatchesBufferedModeBitwise) {
  Fixture f;
  // Outlier rule off → one-client waves (serial); on → one whole-cohort
  // wave. A huge multiplier keeps the median gate from rejecting anyone, so
  // the accepted set — and therefore the fold order and bits — is identical
  // at both wave sizes, for raw states and int8 frames alike.
  for (const Codec codec : {Codec::kNone, Codec::kInt8}) {
    auto streaming_cfg = engine_config();
    streaming_cfg.defense.norm_outlier_multiplier = 0.0f;
    streaming_cfg.aggregation = {.shards = 8, .fanout = 8};
    streaming_cfg.transport.codec = codec;
    auto buffered_cfg = streaming_cfg;
    buffered_cfg.defense.norm_outlier_multiplier = 1e9f;
    const ModelState streamed = f.run(streaming_cfg);
    const ModelState buffered = f.run(buffered_cfg);
    expect_bitwise_equal(streamed, buffered, "streaming vs buffered engine mode");
  }
}

TEST(ShardTreeEngineTest, OutlierQuarantineOfInt8FrameMatchesCrash) {
  // An exploded int8 upload is caught by the outlier rule from its probed
  // norm alone and never reaches the tree: the global equals a run in which
  // that client crashed before uploading.
  Fixture f;
  ASSERT_EQ(f.clients.size(), 6u);
  ResilientConfig cfg{.rounds = 2, .participation = 1.0f};
  cfg.transport.codec = Codec::kInt8;
  cfg.defense.norm_outlier_multiplier = 8.0f;
  auto exploded_cfg = cfg;
  exploded_cfg.faults.inject(0, 3, FaultKind::kExplodedNorm);
  auto crash_cfg = cfg;
  crash_cfg.faults.inject(0, 3, FaultKind::kCrash);
  CostMeter exploded_cost, crash_cost;
  const ModelState exploded = f.run(exploded_cfg, &exploded_cost);
  const ModelState crashed = f.run(crash_cfg, &crash_cost);
  EXPECT_EQ(exploded_cost.quarantined_updates, 1);
  EXPECT_EQ(crash_cost.quarantined_updates, 0);
  EXPECT_EQ(crash_cost.crashed_clients, 1);
  ASSERT_EQ(exploded.numel(), crashed.numel());
  EXPECT_EQ(std::memcmp(exploded.data().data(), crashed.data().data(),
                        static_cast<std::size_t>(exploded.numel()) * sizeof(float)),
            0);
}

}  // namespace
}  // namespace quickdrop::fl
