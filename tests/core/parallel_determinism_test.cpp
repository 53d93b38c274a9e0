// End-to-end thread-count invariance: QuickDrop's distillation training, an
// unlearn/recover cycle, checkpoint/resume, and fault-plan runs must all
// produce bit-identical ModelStates (and synthetic stores) whether the global
// pool has 1, 2 or 8 threads, and training must not depend on the SIMD
// dispatch table either.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "core/checkpoint.h"
#include "core/quickdrop.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "nn/convnet.h"
#include "tensor/simd.h"
#include "util/thread_pool.h"

namespace quickdrop::core {
namespace {

struct ThreadGuard {
  int saved = num_threads();
  ~ThreadGuard() { set_num_threads(saved); }
};

data::TrainTest make_mini_data() {
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.channels = 1;
  spec.image_size = 8;
  spec.train_per_class = 32;
  spec.test_per_class = 8;
  spec.noise = 0.35f;
  spec.seed = 33;
  return data::make_synthetic(spec);
}

// A fresh federation per run: the factory's shared RNG must start at the same
// point for every thread count under comparison.
struct MiniFederation {
  data::TrainTest tt;
  std::vector<data::Dataset> clients;
  fl::ModelFactory factory;

  MiniFederation() : tt(make_mini_data()) {
    Rng prng(7);
    clients = data::materialize(tt.train, data::dirichlet_partition(tt.train, 4, 0.5f, prng));
    nn::ConvNetConfig net;
    net.in_channels = 1;
    net.image_size = 8;
    net.num_classes = 4;
    net.width = 12;
    net.depth = 1;
    auto shared_rng = std::make_shared<Rng>(19);
    factory = [shared_rng, net] { return nn::make_convnet(net, *shared_rng); };
  }

  static QuickDropConfig config() {
    QuickDropConfig cfg;
    cfg.fl_rounds = 5;
    cfg.local_steps = 3;
    cfg.batch_size = 16;
    cfg.train_lr = 0.1f;
    cfg.scale = 10;
    cfg.unlearn_local_steps = 4;
    cfg.unlearn_batch_size = 16;
    cfg.unlearn_lr = 0.05f;
    cfg.recover_lr = 0.05f;
    return cfg;
  }
};

void expect_states_bitwise_equal(const nn::ModelState& a, const nn::ModelState& b,
                                 const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(a.numel(), b.numel()) << what;
  for (std::int64_t j = 0; j < a.numel(); ++j) {
    ASSERT_EQ(a.at(j), b.at(j)) << what << ": flat entry " << j;
  }
}

void expect_stores_bitwise_equal(const std::vector<SyntheticStore>& a,
                                 const std::vector<SyntheticStore>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].present_classes(), b[i].present_classes()) << "store " << i;
    for (const int c : a[i].present_classes()) {
      const Tensor& sa = a[i].class_samples(c);
      const Tensor& sb = b[i].class_samples(c);
      ASSERT_EQ(sa.numel(), sb.numel());
      for (std::int64_t j = 0; j < sa.numel(); ++j) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(sa.at(j)), std::bit_cast<std::uint32_t>(sb.at(j)))
            << "store " << i << " class " << c << " entry " << j;
      }
    }
  }
}

// One complete train + unlearn(class 2) + recover cycle at `threads`.
struct CycleResult {
  nn::ModelState trained;
  nn::ModelState unlearned;
  std::vector<SyntheticStore> stores;
  std::int64_t train_sample_grads = 0;
  std::int64_t train_distill_grads = 0;
};

CycleResult run_cycle(QuickDropConfig cfg, int threads) {
  set_num_threads(threads);
  MiniFederation fed;
  QuickDrop qd(fed.factory, fed.clients, cfg, 99);
  CycleResult out;
  out.trained = qd.train();
  out.unlearned = qd.unlearn(out.trained, UnlearningRequest::for_class(2));
  out.stores = qd.stores();
  out.train_sample_grads = qd.training_stats().cost.sample_grads;
  out.train_distill_grads = qd.training_stats().cost.distill_sample_grads;
  return out;
}

TEST(ParallelDeterminismTest, TrainAndUnlearnCycleBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const QuickDropConfig cfg = MiniFederation::config();
  const CycleResult serial = run_cycle(cfg, 1);
  ASSERT_GT(serial.train_distill_grads, 0);  // distillation actually ran
  for (const int t : {2, 8}) {
    const CycleResult parallel = run_cycle(cfg, t);
    expect_states_bitwise_equal(serial.trained, parallel.trained, "trained");
    expect_states_bitwise_equal(serial.unlearned, parallel.unlearned, "unlearned");
    // The distilled synthetic data itself is part of the contract: recovery
    // sets for later requests are built from it.
    expect_stores_bitwise_equal(serial.stores, parallel.stores);
    EXPECT_EQ(serial.train_sample_grads, parallel.train_sample_grads) << t;
    EXPECT_EQ(serial.train_distill_grads, parallel.train_distill_grads) << t;
  }
}

TEST(ParallelDeterminismTest, TrainBitIdenticalAcrossDispatchTablesAndThreads) {
  // The tensor runs, transposes and matmul tiles go through the dispatched
  // SIMD table; the scalar oracle and the AVX2 table must train the same
  // bytes, distilled synthetic data included.
  if (!(simd::avx2_compiled() && simd::avx2_supported())) GTEST_SKIP() << "AVX2 not available";
  ThreadGuard guard;
  QuickDropConfig cfg = MiniFederation::config();
  cfg.fl_rounds = 2;
  struct Run {
    nn::ModelState trained;
    std::vector<SyntheticStore> stores;
  };
  const auto run = [&](simd::Dispatch dispatch, int threads) {
    simd::force_dispatch(dispatch);
    set_num_threads(threads);
    MiniFederation fed;
    QuickDrop qd(fed.factory, fed.clients, cfg, 99);
    Run out{qd.train(), qd.stores()};
    EXPECT_GT(qd.training_stats().cost.distill_sample_grads, 0);  // distillation ran
    simd::force_dispatch(simd::Dispatch::kAuto);
    return out;
  };
  const Run oracle = run(simd::Dispatch::kScalar, 1);
  for (const auto dispatch : {simd::Dispatch::kScalar, simd::Dispatch::kAvx2}) {
    for (const int threads : {1, 2}) {
      const Run got = run(dispatch, threads);
      const auto want_bytes = oracle.trained.data();
      const auto got_bytes = got.trained.data();
      ASSERT_EQ(want_bytes.size(), got_bytes.size());
      EXPECT_EQ(std::memcmp(want_bytes.data(), got_bytes.data(), want_bytes.size_bytes()), 0)
          << "dispatch " << static_cast<int>(dispatch) << ", " << threads << " threads";
      expect_stores_bitwise_equal(oracle.stores, got.stores);
    }
  }
}

TEST(ParallelDeterminismTest, FaultPlanRunBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  QuickDropConfig cfg = MiniFederation::config();
  cfg.fl_rounds = 4;
  fl::FaultRates rates;
  rates.crash = 0.15f;
  rates.corrupt_nan = 0.1f;
  rates.straggler = 0.1f;
  cfg.faults = fl::FaultPlan(77, rates);
  cfg.defense.min_quorum = 0.25f;
  cfg.defense.max_round_attempts = 2;
  const CycleResult serial = run_cycle(cfg, 1);
  const CycleResult parallel = run_cycle(cfg, 8);
  expect_states_bitwise_equal(serial.trained, parallel.trained, "trained under faults");
  expect_states_bitwise_equal(serial.unlearned, parallel.unlearned, "unlearned under faults");
  EXPECT_EQ(serial.train_sample_grads, parallel.train_sample_grads);
}

TEST(ParallelDeterminismTest, CheckpointResumeInvariantAcrossThreadCounts) {
  // Kill a 1-thread training run after round 2, restore the checkpoint into
  // a fresh coordinator running 8 threads: the spliced run must land on the
  // serial uninterrupted final state bitwise.
  ThreadGuard guard;
  const QuickDropConfig cfg = MiniFederation::config();

  set_num_threads(1);
  nn::ModelState final_full;
  {
    MiniFederation fed;
    QuickDrop qd(fed.factory, fed.clients, cfg, 99);
    final_full = qd.train();
  }

  std::vector<std::uint8_t> bytes;
  {
    MiniFederation fed;
    QuickDrop killed(fed.factory, fed.clients, cfg, 99);
    killed.train({}, {}, [&](int round, const nn::ModelState& g, const Rng& rng) {
      if (round != 2) return;
      auto cp = make_checkpoint(g, killed.stores());
      cp.cursor =
          RoundCursor{.phase = "train", .rounds_done = round + 1, .rng_state = rng.serialize()};
      bytes = serialize_checkpoint(cp);
    });
  }
  ASSERT_FALSE(bytes.empty());

  set_num_threads(8);
  MiniFederation fed;
  QuickDrop resumed(fed.factory, fed.clients, cfg, 99);
  const auto loaded = deserialize_checkpoint(bytes);
  ASSERT_TRUE(loaded.cursor.has_value());
  resumed.load_stores(restore_stores(loaded));
  TrainResume resume{.global = loaded.global,
                     .rounds_done = loaded.cursor->rounds_done,
                     .rng_state = loaded.cursor->rng_state};
  const auto final_resumed = resumed.train({}, {}, {}, &resume);
  expect_states_bitwise_equal(final_full, final_resumed, "resumed");
}

}  // namespace
}  // namespace quickdrop::core
