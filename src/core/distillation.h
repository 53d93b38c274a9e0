// In-situ gradient-matching dataset distillation (paper Algorithm 2).
//
// During each FL local step the client samples a real mini-batch, computes
// per-class real gradients (whose weighted sum is reused as the FL model
// update — "reuse the gradients on original data computed by FL", §4.8),
// computes per-class synthetic gradients *with* graph, and descends the
// layer-wise cosine matching distance of Zhao et al. (ICLR'21) with respect
// to the synthetic pixels.
#pragma once

#include <mutex>
#include <vector>

#include "core/synthetic_store.h"
#include "fl/client_update.h"

namespace quickdrop::core {

/// Hyperparameters of the distillation (paper §4.1: varsigma_S=1,
/// eta_S=0.1, SGD as opt-alg).
struct DistillConfig {
  int opt_steps = 1;          ///< varsigma_S: pixel-update steps per match
  float learning_rate = 0.1f;  ///< eta_S
  int max_synthetic_batch = 16;  ///< cap on synthetic samples matched at once
};

/// Zhao et al.'s layer-wise matching distance between two gradient lists:
/// each parameter gradient is reshaped to [groups, rest] (rows of a matrix,
/// whole vector for biases) and the per-group cosine distances are summed.
/// `grad_synth` carries graph; `grad_real` is treated as constant.
ag::Var matching_distance(const std::vector<ag::Var>& grad_synth,
                          // NOLINTNEXTLINE(qdlint-api-flatstate): gradient list
                          const std::vector<Tensor>& grad_real);

/// One client's local update that trains the model AND distills its
/// synthetic dataset in the same pass (Algorithm 2 lines 9-17).
class DistillingLocalUpdate final : public fl::ClientUpdate {
 public:
  /// `stores` maps client id -> synthetic store; not owned.
  DistillingLocalUpdate(std::vector<SyntheticStore>& stores, int local_steps, int batch_size,
                        float model_learning_rate, DistillConfig distill);

  void run(nn::Module& model, const data::Dataset& dataset, int round, int client_id, Rng& rng,
           fl::CostMeter& cost) override;

  /// Cumulative wall-clock seconds spent in distillation work (the paper's
  /// Table 6 "DD Compute Time"), summed over clients. Clients may run
  /// concurrently, so this is thread-seconds, not elapsed time.
  [[nodiscard]] double distill_seconds() const { return distill_seconds_; }

  /// Cumulative wall-clock seconds of whole run() calls, summed over clients
  /// like distill_seconds(). Each distillation interval lies inside one run()
  /// interval, so distill_seconds() <= local_update_seconds().
  [[nodiscard]] double local_update_seconds() const { return local_update_seconds_; }

 private:
  std::vector<SyntheticStore>& stores_;
  int local_steps_;
  int batch_size_;
  float model_lr_;
  DistillConfig distill_;
  /// run() may execute concurrently for distinct clients; the per-client
  /// stores are disjoint, but these cross-client totals need a guard.
  std::mutex seconds_mu_;
  double distill_seconds_ = 0.0;
  double local_update_seconds_ = 0.0;
};

/// Performs `opt_steps` pixel updates of `synthetic` (an [m,C,H,W] tensor,
/// modified in place) to match `grad_real` at the current model parameters.
/// Returns the final matching distance. Used by both the in-situ distiller
/// and the fine-tuner.
float match_synthetic_to_gradient(nn::Module& model, Tensor& synthetic, int label,
                                  // NOLINTNEXTLINE(qdlint-api-flatstate): gradient list
                                  const std::vector<Tensor>& grad_real,
                                  const DistillConfig& config, fl::CostMeter& cost);

}  // namespace quickdrop::core
