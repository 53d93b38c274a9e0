// The federation every workload runs on, built the way `quickdrop_cli train`
// builds it: a CIFAR-10-like synthetic dataset, 10 clients under a
// Dirichlet(0.1) partition, a width-16/depth-2 ConvNet, 5 local steps of
// batch 32 and synthetic scale s=10 with one distillation step per match,
// the norm-outlier defense at 8x the median and verified unlearning of up to
// four SGA rounds.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/quickdrop.h"
#include "data/synthetic.h"
#include "nn/module.h"
#include "serve/request.h"

namespace perfbench {

struct Federation {
  quickdrop::data::TrainTest data;
  std::shared_ptr<quickdrop::core::QuickDrop> quickdrop;
  std::unique_ptr<quickdrop::nn::Module> eval_model;
};

/// Local work per client per SGA / recovery round.
struct ServingSteps {
  int local_steps = 5;
  int batch = 32;
};

/// Builds data, partition and coordinator; `seed` drives initialization and
/// sampling. `fl_rounds` is the length of the coordinator's training run.
Federation build_federation(std::uint64_t seed, int fl_rounds, ServingSteps serving = {});

/// A second coordinator over the same data, partitioned and initialized
/// exactly like build_federation's, e.g. for a warm-up run.
std::shared_ptr<quickdrop::core::QuickDrop> make_coordinator(const quickdrop::data::Dataset& train,
                                                             std::uint64_t seed, int fl_rounds,
                                                             ServingSteps serving = {});

/// Rounds of FL training behind the model the http workload starts from.
inline constexpr int kBaseRounds = 8;

/// A federation plus its trained base model.
struct Trained {
  Federation fed;
  quickdrop::nn::ModelState base;
};

/// Builds the federation and trains the base model at two pool threads,
/// then switches to the serving configuration: one pool thread and int8
/// uploads.
Trained build_trained(std::uint64_t seed, ServingSteps serving);

/// `count` requests over a fixed multiset of targets, so every seed does
/// comparable work: each class three times and each client that holds data
/// once (about a quarter client-level), shuffled by `seed` and cycled.
std::vector<quickdrop::serve::ServiceRequest> shuffled_targets(
    std::uint64_t seed, int count, const quickdrop::core::QuickDrop& coordinator);

/// Test-set accuracy (0..1) of `state`.
double test_accuracy(Federation& fed, const quickdrop::nn::ModelState& state);

/// CRC-64 of the serialized state, as 16 hex digits.
std::string state_digest(const quickdrop::nn::ModelState& state);

}  // namespace perfbench
