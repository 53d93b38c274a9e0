#include "core/distillation.h"

#include <map>
#include <stdexcept>

#include "nn/optimizer.h"
#include "nn/state.h"
#include "util/timer.h"

namespace quickdrop::core {
namespace {

constexpr float kCosineEps = 1e-6f;

/// Reshapes a gradient to [groups, rest] following Zhao et al.: matrices and
/// higher-rank tensors group by leading dim; vectors and scalars form one
/// group.
Shape group_shape(const Shape& s) {
  if (s.size() >= 2) {
    std::int64_t rest = 1;
    for (std::size_t i = 1; i < s.size(); ++i) rest *= s[i];
    return {s[0], rest};
  }
  return {1, numel(s)};
}

}  // namespace

ag::Var matching_distance(const std::vector<ag::Var>& grad_synth,
                          // NOLINTNEXTLINE(qdlint-api-flatstate): gradient list, not a model state
                          const std::vector<Tensor>& grad_real) {
  if (grad_synth.size() != grad_real.size() || grad_synth.empty()) {
    throw std::invalid_argument("matching_distance: gradient list mismatch");
  }
  ag::Var total = ag::scalar(0.0f);
  for (std::size_t i = 0; i < grad_synth.size(); ++i) {
    const Shape gs = group_shape(grad_synth[i].shape());
    const std::int64_t groups = gs[0];
    const ag::Var a = ag::reshape(grad_synth[i], gs);
    const Tensor real = grad_real[i].reshaped(gs);
    const ag::Var b = ag::Var::constant(real);
    const Shape row{groups, 1};
    // Groups whose real gradient is (numerically) zero carry no matching
    // signal — e.g. a conv bias feeding InstanceNorm has an exactly-zero
    // gradient — and would otherwise contribute a constant distance of 1.
    Tensor mask(row);
    float active = 0.0f;
    for (std::int64_t g = 0; g < groups; ++g) {
      double norm2 = 0.0;
      for (std::int64_t j = 0; j < gs[1]; ++j) {
        const float v = real.at(g * gs[1] + j);
        norm2 += static_cast<double>(v) * v;
      }
      mask.at(g) = norm2 > static_cast<double>(kCosineEps) * kCosineEps ? 1.0f : 0.0f;
      active += mask.at(g);
    }
    // Exact sentinel: `active` is a sum of exact 0/1 mask entries (an
    // integer-valued count), so == 0 means "no active groups in this row".
    if (active == 0.0f) continue;  // NOLINT(qdlint-num-float-eq)
    const ag::Var dot = ag::reduce_sum_to(ag::mul(a, b), row);
    const ag::Var na = ag::sqrt(ag::reduce_sum_to(ag::square(a), row));
    const ag::Var nb = ag::sqrt(ag::reduce_sum_to(ag::square(b), row));
    const ag::Var cosine = ag::div(dot, ag::add_scalar(ag::mul(na, nb), kCosineEps));
    const ag::Var masked = ag::mul(cosine, ag::Var::constant(mask));
    // Sum over active groups of (1 - cos).
    total = ag::add(total, ag::sub(ag::scalar(active), ag::sum_all(masked)));
  }
  return total;
}

float match_synthetic_to_gradient(nn::Module& model, Tensor& synthetic, int label,
                                  // NOLINTNEXTLINE(qdlint-api-flatstate): gradient list
                                  const std::vector<Tensor>& grad_real,
                                  const DistillConfig& config, fl::CostMeter& cost) {
  const auto params = model.parameters();
  const std::vector<int> labels(static_cast<std::size_t>(synthetic.dim(0)), label);
  float distance = 0.0f;
  for (int step = 0; step < config.opt_steps; ++step) {
    const ag::Var pixels = ag::Var::leaf(synthetic);  // shares storage
    const ag::Var loss = ag::cross_entropy(model.forward(pixels), labels);
    const auto grad_synth = ag::grad(loss, std::span<const ag::Var>(params),
                                     {.create_graph = true});
    const ag::Var dist = matching_distance(grad_synth, grad_real);
    const auto pixel_grad = ag::grad(dist, {pixels});
    synthetic.add_(pixel_grad[0].value(), -config.learning_rate);
    distance = dist.value().item();
    cost.add_distillation(synthetic.dim(0));
  }
  return distance;
}

DistillingLocalUpdate::DistillingLocalUpdate(std::vector<SyntheticStore>& stores, int local_steps,
                                             int batch_size, float model_learning_rate,
                                             DistillConfig distill)
    : stores_(stores),
      local_steps_(local_steps),
      batch_size_(batch_size),
      model_lr_(model_learning_rate),
      distill_(distill) {
  if (local_steps <= 0 || batch_size <= 0 || model_learning_rate <= 0.0f) {
    throw std::invalid_argument("DistillingLocalUpdate: bad hyperparameters");
  }
}

void DistillingLocalUpdate::run(nn::Module& model, const data::Dataset& dataset, int round,
                                int client_id, Rng& rng, fl::CostMeter& cost) {
  (void)round;
  if (dataset.empty()) return;
  const Timer run_timer;
  auto& store = stores_.at(static_cast<std::size_t>(client_id));
  const auto params = model.parameters();

  std::vector<int> pool(static_cast<std::size_t>(dataset.size()));
  for (int i = 0; i < dataset.size(); ++i) pool[static_cast<std::size_t>(i)] = i;

  double local_seconds = 0.0;
  for (int t = 0; t < local_steps_; ++t) {
    const auto rows = data::Dataset::sample_batch_indices(pool, batch_size_, rng);
    // Group the batch rows per class: per-class gradients feed the matching
    // loss and their weighted sum reproduces the full-batch FL gradient.
    std::map<int, std::vector<int>> by_class;
    for (const int r : rows) by_class[dataset.label(r)].push_back(r);

    // Per-parameter gradient list (not a model state): feeds Sgd::step_tensors.
    std::vector<Tensor> model_grad;  // NOLINT(qdlint-api-flatstate)
    bool first = true;
    for (const auto& [label, class_rows] : by_class) {
      auto [images, labels] = dataset.batch(class_rows);
      const ag::Var loss = ag::cross_entropy(model.forward_tensor(images), labels);
      const auto grads = ag::grad(loss, std::span<const ag::Var>(params));
      cost.add_training(static_cast<std::int64_t>(class_rows.size()));
      // Accumulate (n_c / n) * g_c, which equals the mixed-batch gradient.
      const float weight =
          static_cast<float>(class_rows.size()) / static_cast<float>(rows.size());
      // NOLINTNEXTLINE(qdlint-api-flatstate): gradient list feeding match_synthetic_to_gradient
      std::vector<Tensor> grad_tensors;
      grad_tensors.reserve(grads.size());
      for (std::size_t i = 0; i < grads.size(); ++i) {
        grad_tensors.push_back(grads[i].value());
        if (first) {
          Tensor g = grads[i].value().clone();
          g.scale_(weight);
          model_grad.push_back(std::move(g));
        } else {
          model_grad[i].add_(grads[i].value(), weight);
        }
      }
      first = false;

      // Match the class's synthetic samples against this real gradient
      // (Algorithm 2 line 15 / Eq. 6).
      const Timer dd_timer;
      if (store.has_class(label)) {
        Tensor& synthetic = store.class_samples(label);
        if (synthetic.dim(0) <= distill_.max_synthetic_batch) {
          match_synthetic_to_gradient(model, synthetic, label, grad_tensors, distill_, cost);
        } else {
          // Match a random contiguous chunk to bound per-step cost.
          const int m = static_cast<int>(synthetic.dim(0));
          const int start = rng.uniform_int(0, m - distill_.max_synthetic_batch);
          const std::int64_t stride = synthetic.numel() / m;
          Tensor chunk({distill_.max_synthetic_batch, synthetic.shape()[1], synthetic.shape()[2],
                        synthetic.shape()[3]});
          for (std::int64_t i = 0; i < chunk.numel(); ++i) {
            chunk.at(i) = synthetic.at(start * stride + i);
          }
          match_synthetic_to_gradient(model, chunk, label, grad_tensors, distill_, cost);
          for (std::int64_t i = 0; i < chunk.numel(); ++i) {
            synthetic.at(start * stride + i) = chunk.at(i);
          }
        }
      }
      local_seconds += dd_timer.seconds();
    }

    // FL model update with the reused real gradient (Algorithm 2 line 17).
    nn::Sgd optimizer(params, model_lr_);
    optimizer.step_tensors(model_grad, nn::UpdateDirection::kDescent);
  }
  const double run_seconds = run_timer.seconds();
  const std::lock_guard<std::mutex> lock(seconds_mu_);
  distill_seconds_ += local_seconds;
  local_update_seconds_ += run_seconds;
}

}  // namespace quickdrop::core
