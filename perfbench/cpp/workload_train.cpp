// train: FL training with in-situ distillation (Algorithm 2) through
// core::QuickDrop::train, two pool threads, fp32 uploads, and every round's
// checkpoint committed to a store::Store the way `train --checkpoint-every 1`
// does. Gradient matching dominates a round; checkpoint commits give the
// store large writes. serve and net do no work and the update codec is off.
#include <algorithm>
#include <filesystem>
#include <optional>

#include "core/checkpoint.h"
#include "nn/state.h"
#include "stats.h"
#include "store/store.h"
#include "util/thread_pool.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {

namespace qd = quickdrop;
namespace fs = std::filesystem;

namespace {

constexpr int kThreads = 2;
/// A train set-up takes about a second, so it is repeated and setup_s is
/// the median.
constexpr int kSetupReps = 3;
/// A round takes 0.7-1.0 s on the reference VM, so --seconds 40 runs 50
/// rounds in about 40-50 s. The VM's speed drifts in stretches of 10-20 s,
/// so a longer window spans more of them; at least 40 rounds so the p75s
/// have ten samples beyond them.
constexpr double kRoundsPerSecond = 1.25;

int train_rounds(int seconds) {
  const int rounds = static_cast<int>(kRoundsPerSecond * seconds);
  return rounds < 40 ? 40 : rounds;
}

/// Commits one round's checkpoint like `train --checkpoint-every 1`.
void commit_round(qd::store::Store& store, qd::core::QuickDrop& coordinator, int round,
                  const qd::nn::ModelState& state, const qd::Rng& rng) {
  auto cp = qd::core::make_checkpoint(state, coordinator.stores());
  cp.cursor = qd::core::RoundCursor{"train", round + 1, rng.serialize()};
  qd::core::save_checkpoint(cp, store, static_cast<std::uint64_t>(round + 1));
}

double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string fresh_path(const Options& options, const std::string& name) {
  const std::string path = options.out_dir + "/" + name;
  fs::remove(path);
  return path;
}

}  // namespace

void run_train(const Options& options, Report& report) {
  qd::set_num_threads(kThreads);
  const int rounds = train_rounds(options.seconds);
  Facts facts(options, "r" + std::to_string(rounds));

  // Set-up: build data, partition and coordinator, then warm up with one
  // committed round on a second coordinator over the same data. The last
  // repetition's coordinator is the one measured. Every warm-up round and
  // the measured run's first round must give the same state.
  std::vector<double> setup_times;
  std::vector<std::string> first_round_digests;
  std::optional<Federation> fed;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = now_s();
    fed.emplace(build_federation(options.seed, rounds));
    auto warm = make_coordinator(fed->data.train, options.seed, 1);
    qd::store::Store warm_store(fresh_path(options, "train-warmup.qds"));
    const auto warm_state = warm->train(
        {}, {}, [&](int round, const qd::nn::ModelState& state, const qd::Rng& rng) {
          commit_round(warm_store, *warm, round, state, rng);
        });
    setup_times.push_back(now_s() - t0);
    first_round_digests.push_back(state_digest(warm_state));
  }
  auto& coordinator = *fed->quickdrop;

  const std::string store_path = fresh_path(options, "train.qds");
  qd::store::Store store(store_path);
  Tracer tracer(options.trace, 0);
  std::vector<double> round_s, commit_s, op_s, growth_bytes;
  qd::nn::ModelState first_round;

  const double start = now_s();
  const int window = tracer.open("train.window", -1, start);
  double last_exit = start;
  const auto final_state = coordinator.train(
      {}, {}, [&](int round, const qd::nn::ModelState& state, const qd::Rng& rng) {
        const double entry = now_s();
        tracer.add("fl.round", round, last_exit, entry);
        const auto size_before = fs::file_size(store_path);
        {
          ScopedSpan span(tracer, "store.commit", round);
          commit_round(store, coordinator, round, state, rng);
        }
        if (round == 0) first_round = state;
        const double exit = now_s();
        round_s.push_back(entry - last_exit);
        commit_s.push_back(exit - entry);
        op_s.push_back(exit - last_exit);
        growth_bytes.push_back(static_cast<double>(fs::file_size(store_path) - size_before));
        last_exit = exit;
      });
  const double end = now_s();
  tracer.close(window, end);
  const double wall = end - start;

  // Outputs and exact counts (outside the timed window).
  const auto& cost = coordinator.training_stats().cost;
  const double acc = test_accuracy(*fed, final_state);
  const bool finite = qd::nn::all_finite(final_state);
  report.check("train final model finite", finite, "");
  report.check("train test accuracy >= 20%", acc >= 0.20, exact(100.0 * acc) + "%");
  report.check("train ran every round", cost.rounds == rounds && static_cast<int>(op_s.size()) == rounds,
               std::to_string(cost.rounds) + " of " + std::to_string(rounds));
  first_round_digests.push_back(state_digest(first_round));
  report.check("every first round gives the same state",
               std::all_of(first_round_digests.begin(), first_round_digests.end(),
                           [&](const std::string& d) { return d == first_round_digests[0]; }),
               first_round_digests.front() + " then " + first_round_digests.back());
  facts.expect(report, "final_state_digest", state_digest(final_state));
  facts.expect(report, "bytes", std::to_string(cost.total_bytes()));
  facts.expect(report, "sample_grads", std::to_string(cost.sample_grads));
  facts.expect(report, "distill_sample_grads", std::to_string(cost.distill_sample_grads));
  facts.expect(report, "test_acc", exact(acc));
  for (std::size_t i = 0; i < op_s.size(); ++i) report.attempt(true);
  report.attempt(finite);

  const double per_round = static_cast<double>(cost.rounds);
  if (!options.trace) {
    facts.note("untraced_wall_s", wall);
    report.metric("setup_s", median_of(setup_times), "s");
    report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    report.metric("op_ms_p50", 1e3 * percentile(op_s, 50, "round"), "ms");
    report.metric("op_ms_p75", 1e3 * percentile(op_s, 75, "round"), "ms");
    report.metric("ack_ms_p50", 1e3 * percentile(commit_s, 50, "checkpoint commit"), "ms");
    report.metric("op_kb", static_cast<double>(cost.total_bytes()) / per_round / 1024.0, "KiB");
    report.metric("op_kgrads",
                  static_cast<double>(cost.sample_grads + cost.distill_sample_grads) / per_round /
                      1e3,
                  "k");
    report.metric("acc_pct", 100.0 * acc, "%");
  } else {
    const auto cp_bytes = qd::core::serialize_checkpoint(
                              qd::core::make_checkpoint(final_state, coordinator.stores()))
                              .size();
    const double growth = mean(growth_bytes);
    LayerFigures layers;
    layers.round_s = round_s;
    layers.commit_s = commit_s;
    layers.commit_growth_bytes = growth;
    layers.commit_logical_bytes = static_cast<double>(cp_bytes);
    layers.train_grads_per_round = static_cast<double>(cost.sample_grads) / per_round;
    layers.distill_grads_per_round = static_cast<double>(cost.distill_sample_grads) / per_round;
    layers.distill_pct = 100.0 * coordinator.distill_seconds() / (kThreads * wall);
    report_layers(options, report, layers, {tracer.spans()}, start, wall,
                  facts.stored_note("untraced_wall_s"));
  }
  facts.save(report);
}

}  // namespace perfbench
