#include "fl/resilient.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace quickdrop::fl {
namespace {

/// One upload that reached the server in time. With a quantizing transport
/// codec the client fills `wire` (the encoded delta) instead of `state`; the
/// server probes the frame when it collects the slot, and decodes it into
/// `state` only when a client callback needs the local state.
struct Delivery {
  int client = 0;
  nn::ModelState state;
  std::vector<std::uint8_t> wire;
  /// Passes the finiteness rule (always true when the rule is off).
  bool finite_ok = false;
  double update_norm = 0.0;
};

/// Median of the finite update norms (0 when none are finite).
double finite_median_norm(const std::vector<Delivery>& delivered) {
  std::vector<double> norms;
  norms.reserve(delivered.size());
  for (const auto& d : delivered) {
    if (std::isfinite(d.update_norm)) norms.push_back(d.update_norm);
  }
  if (norms.empty()) return 0.0;
  const auto mid = norms.size() / 2;
  std::nth_element(norms.begin(), norms.begin() + static_cast<std::ptrdiff_t>(mid), norms.end());
  return norms[mid];
}

/// Why an update was quarantined, or nullptr if it is acceptable.
/// `median_norm` is 0 when the cohort is too small to define one.
const char* rejection_reason(bool finite_ok, double update_norm, const DefenseConfig& defense,
                             double median_norm) {
  if (!finite_ok) return "non-finite values";
  if (defense.max_update_norm > 0.0f &&
      !(update_norm <= static_cast<double>(defense.max_update_norm))) {
    return "update norm above absolute cap";
  }
  if (defense.norm_outlier_multiplier > 0.0f && median_norm > 0.0 &&
      !(update_norm <= static_cast<double>(defense.norm_outlier_multiplier) * median_norm)) {
    return "update norm outlier";
  }
  return nullptr;
}

}  // namespace

nn::ModelState run_resilient(nn::Module& model, nn::ModelState global,
                             const std::vector<data::Dataset>& client_data, ClientUpdate& update,
                             const ResilientConfig& config, Rng& rng, CostMeter& cost,
                             const RoundCallback& callback,
                             const ClientStateCallback& client_callback,
                             const RoundCursorCallback& cursor_callback) {
  if (config.rounds < 0 || !std::isfinite(config.participation) ||
      config.participation <= 0.0f || config.participation > 1.0f ||
      config.start_round < 0 || config.start_round > config.rounds) {
    throw std::invalid_argument("run_resilient: bad config");
  }
  config.defense.validate();
  config.aggregation.validate();
  std::vector<int> eligible;
  for (std::size_t i = 0; i < client_data.size(); ++i) {
    if (!client_data[i].empty()) eligible.push_back(static_cast<int>(i));
  }
  if (eligible.empty()) throw std::invalid_argument("run_resilient: no client has data");
  if (global.empty()) throw std::invalid_argument("run_resilient: empty global state");

  // Per-worker scratch models for the concurrent client phase, built lazily
  // (serially, on this thread) and reused across rounds.
  std::vector<std::unique_ptr<nn::Module>> worker_models;
  // Each client's CostMeter::total() the last time it ran (0 before): the
  // parallel waves start their heaviest clients first.
  std::vector<std::int64_t> last_cost(client_data.size(), 0);

  // One layout shared by the global and every client upload: snapshots reuse
  // it instead of re-deriving a manifest per client per round, and the
  // aggregation kernels hit the pointer-equality fast path when they check
  // compatibility.
  const auto layout = global.layout();

  // The streaming hierarchical aggregator, reused (reset) across rounds.
  // Accepted updates fold into it in cohort order, wave by wave.
  ShardTree tree(layout, config.aggregation);
  // The norm-outlier rule is the one validation that needs the whole
  // cohort's norms before any accept/reject decision, so with it on a wave
  // is the whole cohort; every other rule decides per update.
  const bool whole_cohort_waves = config.defense.norm_outlier_multiplier > 0.0f;

  // Measures one delivery for validation: its update norm and whether it
  // passes the finiteness rule. A wire frame is probed block by block (no
  // fp32 state is materialized) unless the client callback needs the local
  // state, in which case it is decoded. Returns false for a frame that
  // cannot be decoded.
  auto measure = [&](Delivery& d) {
    if (!d.wire.empty()) {
      try {
        if (!client_callback) {
          const ShardTree::WireProbe probe = tree.probe_quantized(d.wire, global);
          d.update_norm = probe.norm;
          d.finite_ok = !config.defense.validate_finite || probe.finite;
          return true;
        }
        const nn::ModelState delta = decode_delta(d.wire, layout);
        d.state = global;
        nn::axpy(d.state, delta, 1.0f);
      } catch (const nn::StateError&) {
        return false;
      }
      d.wire.clear();
      d.wire.shrink_to_fit();
    }
    d.update_norm = nn::l2_distance(d.state, global);
    d.finite_ok = !config.defense.validate_finite || nn::all_finite(d.state);
    return true;
  };

  for (int round = config.start_round; round < config.rounds; ++round) {
    for (int attempt = 0; attempt < config.defense.max_round_attempts; ++attempt) {
      if (attempt > 0) {
        ++cost.retried_rounds;
        cost.sim_backoff_seconds += static_cast<double>(config.defense.retry_backoff_seconds) *
                                    static_cast<double>(1LL << (attempt - 1));
        QD_LOG_WARN << "round " << round << ": retrying (attempt " << attempt + 1 << "/"
                    << config.defense.max_round_attempts << ") after quorum failure";
      }

      // Sample this attempt's cohort.
      std::vector<int> cohort = eligible;
      if (config.participation < 1.0f) {
        const int k = std::max(1, static_cast<int>(static_cast<float>(eligible.size()) *
                                                   config.participation));
        const auto picks = rng.sample_without_replacement(static_cast<int>(eligible.size()), k);
        cohort.clear();
        for (const int p : picks) cohort.push_back(eligible[static_cast<std::size_t>(p)]);
      }
      const int sampled = static_cast<int>(cohort.size());

      tree.reset();
      std::int64_t accepted_count = 0;
      std::int64_t accepted_samples = 0;

      const int pool_threads = ThreadPool::global().threads();
      const int n_workers = static_cast<int>(
          std::min<std::size_t>(static_cast<std::size_t>(pool_threads), cohort.size()));
      const bool parallel = config.client_model_factory && n_workers > 1;
      if (parallel) {
        while (static_cast<int>(worker_models.size()) < n_workers) {
          worker_models.push_back(config.client_model_factory());
        }
      }

      // Client phase: run local updates, apply injected faults. Client c's
      // work depends only on (round, attempt, c) and the global state — its
      // RNG is tag-split, never drawn from a shared stream — so clients can
      // execute in any order, including concurrently. Each client writes its
      // delivery slot and a private CostMeter; both are merged in cohort
      // order below, keeping every downstream number independent of the
      // thread count. The cohort runs in waves, and each wave's accepted
      // updates fold before the next wave runs, so at most one wave of
      // uploads is alive at a time. The wave size changes no bit: accepted
      // updates fold in cohort order whatever it is.
      const std::size_t wave_size =
          whole_cohort_waves ? cohort.size()
                             : (parallel ? 4 * static_cast<std::size_t>(n_workers) : 1);
      std::vector<Delivery> delivered;
      for (std::size_t wave_begin = 0; wave_begin < cohort.size(); wave_begin += wave_size) {
        const std::size_t wave_end = std::min(cohort.size(), wave_begin + wave_size);
        const std::size_t wave_len = wave_end - wave_begin;
        std::vector<std::optional<Delivery>> slots(wave_len);
        std::vector<CostMeter> slot_costs(wave_len);
        auto run_client = [&](std::size_t idx, nn::Module& client_model) {
          const int c = cohort[idx];
          CostMeter& ccost = slot_costs[idx - wave_begin];
          const FaultKind fault = config.faults.fault_for(round, attempt, c);
          if (fault == FaultKind::kCrash) {
            ++ccost.crashed_clients;
            QD_LOG_DEBUG << "round " << round << ": client " << c << " crashed before upload";
            return;
          }
          nn::load_state(client_model, global);
          Rng client_rng = rng.split(static_cast<std::uint64_t>(round) * 100003ULL +
                                     static_cast<std::uint64_t>(c));
          update.run(client_model, client_data[static_cast<std::size_t>(c)], round, c, client_rng,
                     ccost);
          nn::ModelState state{layout};
          nn::snapshot_into(client_model, state);
          if (fault == FaultKind::kStraggler) {
            // Compute was spent and the model was downloaded, but the upload
            // missed the simulated round deadline.
            ++ccost.straggler_timeouts;
            ccost.add_exchange(0, nn::state_bytes(global));
            QD_LOG_WARN << "round " << round << ": client " << c
                        << " straggled past the round deadline; update discarded";
            return;
          }
          if (fault != FaultKind::kNone) {
            Rng fault_rng = Rng(config.faults.seed() ^ 0xFA017C0DEULL)
                                .split(static_cast<std::uint64_t>(round) * 611953ULL +
                                       static_cast<std::uint64_t>(c));
            apply_corruption(fault, state, global, fault_rng);
          }
          Delivery d;
          d.client = c;
          if (config.transport.codec != Codec::kNone) {
            // Quantized transport: ship the encoded delta against the round's
            // global state. Encoding happens after fault corruption, so a
            // corrupted update crosses the wire the way a real faulty client
            // would send it (non-finite blocks ride the raw-block escape and
            // reach server-side validation bit-exactly).
            const nn::ModelState delta = nn::subtract(state, global);
            d.wire = encode_delta(delta, config.transport.codec);
            ccost.add_exchange(static_cast<std::int64_t>(d.wire.size()),
                               nn::state_bytes(global));
          } else {
            ccost.add_exchange(nn::state_bytes(state), nn::state_bytes(global));
            d.state = std::move(state);
          }
          slots[idx - wave_begin] = std::move(d);
        };

        if (parallel) {
          // Workers claim clients one at a time, heaviest previous cost
          // first (ties and first rounds in cohort order), so the costliest
          // client does not start last. Which worker runs a client changes
          // no bit: its work depends only on (round, attempt, c) and the
          // global state, and results are collected in cohort order below.
          std::vector<std::size_t> order(wave_len);
          for (std::size_t i = 0; i < wave_len; ++i) order[i] = wave_begin + i;
          std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
            return last_cost[static_cast<std::size_t>(cohort[x])] >
                   last_cost[static_cast<std::size_t>(cohort[y])];
          });
          std::atomic<std::size_t> next{0};
          // qdlint: shared-write(workers write disjoint slots/slot_costs entries; each owns its model)
          ThreadPool::global().run_chunks(n_workers, [&](int w) {
            for (std::size_t t = next.fetch_add(1, std::memory_order_relaxed); t < wave_len;
                 t = next.fetch_add(1, std::memory_order_relaxed)) {
              run_client(order[t], *worker_models[static_cast<std::size_t>(w)]);
            }
          });
        } else {
          for (std::size_t idx = wave_begin; idx < wave_end; ++idx) run_client(idx, model);
        }

        // Server phase, serial in cohort order. First measure each delivery
        // (an undecodable frame is quarantined like a corrupted upload),
        // then validate it against the wave's median norm, then fold it.
        delivered.clear();
        for (std::size_t idx = wave_begin; idx < wave_end; ++idx) {
          last_cost[static_cast<std::size_t>(cohort[idx])] = slot_costs[idx - wave_begin].total();
          cost += slot_costs[idx - wave_begin];
          if (!slots[idx - wave_begin]) continue;
          Delivery& d = *slots[idx - wave_begin];
          if (!measure(d)) {
            ++cost.quarantined_updates;
            QD_LOG_WARN << "round " << round << ": quarantined update from client " << d.client
                        << " (undecodable transport frame)";
            continue;
          }
          delivered.push_back(std::move(d));
        }
        // The outlier rule needs a crowd to define "normal"; with fewer than
        // 3 deliveries only the absolute checks apply.
        const double median_norm = delivered.size() >= 3 ? finite_median_norm(delivered) : 0.0;
        for (const Delivery& d : delivered) {
          const char* reason =
              rejection_reason(d.finite_ok, d.update_norm, config.defense, median_norm);
          if (reason != nullptr) {
            ++cost.quarantined_updates;
            QD_LOG_WARN << "round " << round << ": quarantined update from client " << d.client
                        << " (" << reason << ")";
            continue;
          }
          if (client_callback) client_callback(round, d.client, d.state, global);
          const auto samples = client_data[static_cast<std::size_t>(d.client)].size();
          // Raw sample-count weights: the normalizer (total accepted
          // samples) is only known after the last fold, so finalize applies
          // it once.
          if (d.wire.empty()) {
            tree.fold(d.client, d.state, static_cast<double>(samples));
          } else {
            tree.fold_quantized(d.client, d.wire, global, static_cast<double>(samples));
          }
          ++accepted_count;
          accepted_samples += samples;
        }
      }

      // Quorum: how many valid updates does this round need?
      const int required =
          std::max(1, config.defense.min_quorum > 0.0f
                          ? static_cast<int>(std::ceil(static_cast<double>(config.defense.min_quorum) *
                                                       static_cast<double>(sampled)))
                          : 1);
      if (accepted_count < required) {
        if (attempt + 1 < config.defense.max_round_attempts) continue;  // retry
        // Out of attempts: the round is lost, the global state carries over.
        ++cost.rounds;
        ++cost.lost_rounds;
        QD_LOG_WARN << "round " << round << ": lost (" << accepted_count << "/" << required
                    << " valid updates after " << config.defense.max_round_attempts
                    << " attempt(s))";
        break;
      }

      // Root merge: one O(params) collapse + scale by the now-known weight
      // normalizer. The folds carried raw |D_c| weights, so scaling by
      // 1 / accepted_samples yields the same |D_c|/|D| FedAvg weighting.
      global = tree.finalize(1.0 / static_cast<double>(accepted_samples));
      if (!nn::all_finite(global)) {
        // Validation rejects non-finite uploads and finite ones cannot
        // aggregate to NaN/Inf unless the weights overflow — either way the
        // invariant is broken and continuing would poison every later round.
        throw std::runtime_error("run_resilient: aggregated global state is non-finite");
      }
      ++cost.rounds;
      break;
    }
    if (callback) callback(round, global);
    if (cursor_callback) cursor_callback(round, global, rng);
  }
  return global;
}

std::int64_t total_samples(const std::vector<data::Dataset>& client_data) {
  std::int64_t n = 0;
  for (const auto& d : client_data) n += d.size();
  return n;
}

}  // namespace quickdrop::fl
