#include "core/sample_level.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <stdexcept>

#include "nn/optimizer.h"
#include "nn/state.h"
#include "util/timer.h"

namespace quickdrop::core {

SubsetStore::SubsetStore(const data::Dataset& client_data, int scale, int subsets_per_class,
                         Rng& rng)
    : num_classes_(client_data.num_classes()),
      subsets_per_class_(subsets_per_class),
      image_shape_(client_data.image_shape()),
      row_cell_(static_cast<std::size_t>(client_data.size()), -1) {
  if (scale <= 0 || subsets_per_class <= 0) {
    throw std::invalid_argument("SubsetStore: scale and subsets_per_class must be positive");
  }
  for (int c = 0; c < num_classes_; ++c) {
    auto rows = client_data.indices_of_class(c);
    if (rows.empty()) continue;
    rng.shuffle(rows);
    // Deal class rows round-robin into K subsets; small classes may leave
    // some subsets empty, which is fine.
    std::vector<std::vector<int>> subsets(static_cast<std::size_t>(subsets_per_class));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      subsets[i % static_cast<std::size_t>(subsets_per_class)].push_back(rows[i]);
    }
    for (int k = 0; k < subsets_per_class; ++k) {
      const auto& members = subsets[static_cast<std::size_t>(k)];
      if (members.empty()) continue;
      const int cell = c * subsets_per_class + k;
      for (const int row : members) row_cell_[static_cast<std::size_t>(row)] = cell;
      const int m = static_cast<int>(
          (members.size() + static_cast<std::size_t>(scale) - 1) / static_cast<std::size_t>(scale));
      const auto synth_rows = data::Dataset::sample_batch_indices(members, m, rng);
      auto [images, labels] = client_data.batch(synth_rows);
      (void)labels;
      cells_.emplace(cell, images.clone());
    }
  }
}

int SubsetStore::cell_of_row(int row) const {
  const int cell = row_cell_.at(static_cast<std::size_t>(row));
  if (cell < 0) throw std::logic_error("SubsetStore: row not assigned to a cell");
  return cell;
}

bool SubsetStore::has_cell(int cell) const { return cells_.count(cell) > 0; }

Tensor& SubsetStore::cell_samples(int cell) {
  const auto it = cells_.find(cell);
  if (it == cells_.end()) throw std::out_of_range("SubsetStore: no such cell");
  return it->second;
}

data::Dataset SubsetStore::cells_dataset(const std::vector<int>& cells) const {
  std::int64_t m = 0;
  for (const int cell : cells) {
    const auto it = cells_.find(cell);
    if (it != cells_.end()) m += it->second.dim(0);
  }
  Shape shape{m};
  shape.insert(shape.end(), image_shape_.begin(), image_shape_.end());
  Tensor images(shape);
  std::vector<int> labels;
  labels.reserve(static_cast<std::size_t>(m));
  const std::int64_t stride = numel(image_shape_);
  std::int64_t row = 0;
  for (const int cell : cells) {
    const auto it = cells_.find(cell);
    if (it == cells_.end()) continue;
    std::memcpy(images.data().data() + row * stride, it->second.data().data(),
                it->second.data().size() * sizeof(float));
    row += it->second.dim(0);
    labels.insert(labels.end(), static_cast<std::size_t>(it->second.dim(0)), cell_class(cell));
  }
  return data::Dataset(std::move(images), std::move(labels), num_classes_);
}

std::vector<int> SubsetStore::all_cells() const {
  std::vector<int> out;
  out.reserve(cells_.size());
  for (const auto& [cell, _] : cells_) out.push_back(cell);
  return out;
}

std::vector<int> SubsetStore::cells_excluding(const std::vector<int>& excluded) const {
  const std::set<int> skip(excluded.begin(), excluded.end());
  std::vector<int> out;
  for (const auto& [cell, _] : cells_) {
    if (!skip.count(cell)) out.push_back(cell);
  }
  return out;
}

int SubsetStore::total_samples() const {
  int n = 0;
  for (const auto& [_, t] : cells_) n += static_cast<int>(t.dim(0));
  return n;
}

SubsetDistillingUpdate::SubsetDistillingUpdate(std::vector<SubsetStore>& stores, int local_steps,
                                               int batch_size, float model_learning_rate,
                                               DistillConfig distill)
    : stores_(stores),
      local_steps_(local_steps),
      batch_size_(batch_size),
      model_lr_(model_learning_rate),
      distill_(distill) {
  if (local_steps <= 0 || batch_size <= 0 || model_learning_rate <= 0.0f) {
    throw std::invalid_argument("SubsetDistillingUpdate: bad hyperparameters");
  }
}

void SubsetDistillingUpdate::run(nn::Module& model, const data::Dataset& dataset, int round,
                                 int client_id, Rng& rng, fl::CostMeter& cost) {
  (void)round;
  if (dataset.empty()) return;
  auto& store = stores_.at(static_cast<std::size_t>(client_id));
  const auto params = model.parameters();

  std::vector<int> pool(static_cast<std::size_t>(dataset.size()));
  for (int i = 0; i < dataset.size(); ++i) pool[static_cast<std::size_t>(i)] = i;

  for (int t = 0; t < local_steps_; ++t) {
    const auto rows = data::Dataset::sample_batch_indices(pool, batch_size_, rng);
    std::map<int, std::vector<int>> by_cell;
    for (const int r : rows) by_cell[store.cell_of_row(r)].push_back(r);

    // Per-parameter gradient list (not a model state): feeds Sgd::step_tensors.
    std::vector<Tensor> model_grad;  // NOLINT(qdlint-api-flatstate)
    bool first = true;
    for (const auto& [cell, cell_rows] : by_cell) {
      auto [images, labels] = dataset.batch(cell_rows);
      const ag::Var loss = ag::cross_entropy(model.forward_tensor(images), labels);
      const auto grads = ag::grad(loss, std::span<const ag::Var>(params));
      cost.add_training(static_cast<std::int64_t>(cell_rows.size()));
      const float weight = static_cast<float>(cell_rows.size()) / static_cast<float>(rows.size());
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
      if (store.has_cell(cell)) {
        match_synthetic_to_gradient(model, store.cell_samples(cell), store.cell_class(cell),
                                    grad_tensors, distill_, cost);
      }
    }
    nn::Sgd optimizer(params, model_lr_);
    optimizer.step_tensors(model_grad, nn::UpdateDirection::kDescent);
  }
}

SampleLevelQuickDrop::SampleLevelQuickDrop(fl::ModelFactory factory,
                                           std::vector<data::Dataset> client_train,
                                           QuickDropConfig config, int subsets_per_class,
                                           std::uint64_t seed)
    : factory_(std::move(factory)),
      client_train_(std::move(client_train)),
      config_(config),
      rng_(seed),
      forgotten_cells_(client_train_.size()) {
  if (client_train_.empty()) throw std::invalid_argument("SampleLevelQuickDrop: no clients");
  scratch_model_ = factory_();
  Rng store_rng = rng_.split(0x5B5);
  stores_.reserve(client_train_.size());
  for (std::size_t i = 0; i < client_train_.size(); ++i) {
    Rng client_rng = store_rng.split(i);
    stores_.emplace_back(client_train_[i], config_.scale, subsets_per_class, client_rng);
  }
}

nn::ModelState SampleLevelQuickDrop::train(const fl::RoundCallback& callback) {
  SubsetDistillingUpdate update(stores_, config_.local_steps, config_.batch_size,
                                config_.train_lr, config_.distill);
  fl::ResilientConfig fed{.rounds = config_.fl_rounds, .participation = config_.participation};
  fed.client_model_factory = factory_;
  fl::CostMeter cost;
  Rng fed_rng = rng_.split(0xF2);
  return fl::run_resilient(*scratch_model_, nn::state_of(*scratch_model_), client_train_, update,
                           fed, fed_rng, cost, callback);
}

std::map<int, std::vector<int>> SampleLevelQuickDrop::affected_cells(
    const SampleRequest& request) const {
  std::map<int, std::vector<int>> out;
  for (const auto& [client, rows] : request.rows_per_client) {
    if (client < 0 || client >= num_clients()) {
      throw std::out_of_range("SampleRequest: bad client id");
    }
    std::set<int> cells;
    for (const int row : rows) {
      cells.insert(stores_[static_cast<std::size_t>(client)].cell_of_row(row));
    }
    out[client] = std::vector<int>(cells.begin(), cells.end());
  }
  return out;
}

nn::ModelState SampleLevelQuickDrop::unlearn(const nn::ModelState& state,
                                             const SampleRequest& request,
                                             PhaseStats* unlearn_stats,
                                             PhaseStats* recovery_stats) {
  const auto affected = affected_cells(request);
  if (affected.empty()) throw std::invalid_argument("SampleLevelQuickDrop: empty request");

  // Forget counterparts: the affected cells' synthetic data per client.
  std::vector<data::Dataset> forget;
  forget.reserve(stores_.size());
  for (std::size_t i = 0; i < stores_.size(); ++i) {
    const auto it = affected.find(static_cast<int>(i));
    forget.push_back(it == affected.end()
                         ? data::Dataset(stores_[i].image_shape(), client_train_[i].num_classes())
                         : stores_[i].cells_dataset(it->second));
  }

  auto run = [&](const std::vector<data::Dataset>& data, int rounds, float lr,
                 nn::UpdateDirection dir, PhaseStats* stats, const nn::ModelState& start) {
    const Timer timer;
    fl::SgdLocalUpdate update(config_.unlearn_local_steps, config_.unlearn_batch_size, lr, dir);
    fl::ResilientConfig fed{.rounds = rounds, .participation = 1.0f};
    fed.client_model_factory = factory_;
    fl::CostMeter cost;
    Rng phase_rng = rng_.split(0xE5);
    auto result = fl::run_resilient(*scratch_model_, start, data, update, fed, phase_rng, cost);
    if (stats) {
      stats->seconds = timer.seconds();
      stats->cost = cost;
      stats->rounds = rounds;
      stats->data_size = fl::total_samples(data);
    }
    return result;
  };

  nn::ModelState current = run(forget, config_.unlearn_rounds,
                               config_.unlearn_lr, nn::UpdateDirection::kAscent, unlearn_stats,
                               state);

  // Mark cells forgotten, then recover on everything not forgotten.
  for (const auto& [client, cells] : affected) {
    auto& forgotten = forgotten_cells_[static_cast<std::size_t>(client)];
    forgotten.insert(forgotten.end(), cells.begin(), cells.end());
  }
  std::vector<data::Dataset> retain;
  retain.reserve(stores_.size());
  for (std::size_t i = 0; i < stores_.size(); ++i) {
    retain.push_back(stores_[i].cells_dataset(stores_[i].cells_excluding(forgotten_cells_[i])));
  }
  if (fl::total_samples(retain) > 0) {
    current = run(retain, config_.recovery_rounds, config_.recover_lr,
                  nn::UpdateDirection::kDescent, recovery_stats, current);
  }
  return current;
}

}  // namespace quickdrop::core
