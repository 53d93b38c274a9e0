#include "world.h"

#include <cstdio>
#include <span>

#include "data/partition.h"
#include "metrics/evaluate.h"
#include "nn/convnet.h"
#include "schedule.h"
#include "fl/quantize.h"
#include "util/crc64.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace qd = quickdrop;

namespace {

/// The federation's partition is the CLI's default deployment (seed 42) on
/// every run: how much data each client holds sets how much work a round or
/// a request does, and letting it vary with the run seed made the work per
/// run differ by several percent between seeds. The run seed drives the
/// model initialization, the training and distillation sampling, and the
/// requests and their arrival times.
constexpr std::uint64_t kPartitionSeed = 42;

qd::fl::ModelFactory model_factory(const qd::data::Dataset& train, std::uint64_t seed) {
  qd::nn::ConvNetConfig net;
  net.in_channels = static_cast<int>(train.image_shape()[0]);
  net.image_size = static_cast<int>(train.image_shape()[1]);
  net.num_classes = train.num_classes();
  net.width = 16;
  net.depth = 2;
  net.validate();
  auto model_rng = std::make_shared<qd::Rng>(seed ^ 0xDEED);
  return [model_rng, net] { return qd::nn::make_convnet(net, *model_rng); };
}

}  // namespace

std::shared_ptr<qd::core::QuickDrop> make_coordinator(const qd::data::Dataset& train,
                                                      std::uint64_t seed, int fl_rounds,
                                                      ServingSteps serving) {
  qd::Rng partition_rng(kPartitionSeed ^ 0x9A97);
  const auto partition = qd::data::dirichlet_partition(train, 10, 0.1f, partition_rng);
  auto clients = qd::data::materialize(train, partition);

  qd::core::QuickDropConfig config;
  config.fl_rounds = fl_rounds;
  config.local_steps = 5;
  config.batch_size = 32;
  config.train_lr = 0.05f;
  config.scale = 10;
  config.distill.opt_steps = 1;
  config.unlearn_lr = 0.05f;
  config.recover_lr = 0.03f;
  config.unlearn_local_steps = serving.local_steps;
  config.unlearn_batch_size = serving.batch;
  // The CLI's deployment defaults (tools/quickdrop_cli.cpp, FedSpec and
  // build()): the norm-outlier defense is on, so fl/resilient buffers each
  // round's updates before folding them, and unlearning is verified (up to
  // four SGA rounds until the synthetic forget set is erased).
  config.defense.norm_outlier_multiplier = 8.0f;
  config.max_unlearn_rounds = 4;
  return std::make_shared<qd::core::QuickDrop>(model_factory(train, seed), std::move(clients),
                                               config, seed);
}

Federation build_federation(std::uint64_t seed, int fl_rounds, ServingSteps serving) {
  // The dataset is the fixed CIFAR-10-like stand-in the CLI trains on.
  Federation fed{.data = qd::data::make_synthetic(qd::data::spec_by_name("cifar10")),
                 .quickdrop = nullptr,
                 .eval_model = nullptr};
  fed.quickdrop = make_coordinator(fed.data.train, seed, fl_rounds, serving);
  // The evaluation model's initial weights are overwritten before every use.
  fed.eval_model = model_factory(fed.data.train, seed)();
  return fed;
}

Trained build_trained(std::uint64_t seed, ServingSteps serving) {
  qd::set_num_threads(2);
  Trained trained{.fed = build_federation(seed, kBaseRounds, serving), .base = {}};
  trained.base = trained.fed.quickdrop->train();
  qd::set_num_threads(1);
  trained.fed.quickdrop->set_transport(qd::fl::TransportConfig{.codec = qd::fl::Codec::kInt8});
  return trained;
}

std::vector<qd::serve::ServiceRequest> shuffled_targets(std::uint64_t seed, int count,
                                                        const qd::core::QuickDrop& coordinator) {
  std::vector<qd::serve::ServiceRequest> pool;
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (int c = 0; c < coordinator.num_classes(); ++c) {
      pool.push_back({.kind = qd::serve::RequestKind::kClass, .target = c});
    }
  }
  for (int c = 0; c < coordinator.num_clients(); ++c) {
    if (coordinator.stores()[static_cast<std::size_t>(c)].total_samples() > 0) {
      pool.push_back({.kind = qd::serve::RequestKind::kClient, .target = c});
    }
  }
  SplitMix rng(seed);
  std::vector<qd::serve::ServiceRequest> requests;
  while (static_cast<int>(requests.size()) < count) {
    auto round = pool;
    for (std::size_t i = round.size(); i > 1; --i) {  // Fisher-Yates
      std::swap(round[i - 1], round[static_cast<std::size_t>(rng.below(static_cast<int>(i)))]);
    }
    for (const auto& request : round) {
      if (static_cast<int>(requests.size()) < count) requests.push_back(request);
    }
  }
  return requests;
}

double test_accuracy(Federation& fed, const qd::nn::ModelState& state) {
  qd::nn::load_state(*fed.eval_model, state);
  return qd::metrics::accuracy(*fed.eval_model, fed.data.test);
}

std::string state_digest(const qd::nn::ModelState& state) {
  const auto bytes = qd::nn::serialize_state(state);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(qd::crc64(std::span(bytes))));
  return hex;
}

}  // namespace perfbench
