// Distribution-matching dataset distillation (Zhao & Bilen, WACV'23) — an
// alternative distillation backend from the paper's related work (§6.2).
//
// Instead of matching parameter *gradients* (second-order in the synthetic
// pixels), DM matches class-conditional *feature distributions* under
// randomly initialized embedding networks: minimize
//   || mean phi(S^c) - mean phi(B^c) ||^2
// per class, where phi is the ConvNet body without its classifier head.
// First-order only, hence much cheaper per step; QuickDrop's gradient
// matching remains the default because it targets unlearning specifically.
#pragma once

#include "core/synthetic_store.h"
#include "fl/resilient.h"

namespace quickdrop::core {

struct DmConfig {
  int iterations = 20;        ///< outer steps; each uses a fresh random embedder
  int real_batch = 32;        ///< real samples per class per step
  float learning_rate = 0.1f;  ///< pixel learning rate
  float momentum = 0.5f;       ///< pixel-optimizer momentum (Zhao's setting)
};

/// Refines one client's synthetic store by distribution matching against its
/// real data. The embedding network is drawn from `factory` (its classifier
/// head is skipped). Synthetic-side work is charged as distillation cost,
/// real-side embeddings as training cost.
void distill_distribution_matching(const fl::ModelFactory& factory, SyntheticStore& store,
                                   const data::Dataset& client_data, const DmConfig& config,
                                   Rng& rng, fl::CostMeter& cost);

/// The per-class DM objective at a fixed embedder; exposed for tests.
/// `embedder_output` must be the feature Var of shape [N, F].
ag::Var feature_mean_distance(const ag::Var& synth_features, const ag::Var& real_features);

}  // namespace quickdrop::core
