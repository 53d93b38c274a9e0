// Extension experiment: streaming sharded aggregation at scale.
//
// Drives synthetic client updates straight through fl::ShardTree — no
// federation world, no training — to measure the server-side merge alone:
//
//   1. Scale sweep: cohorts of 1k / 10k / 100k simulated clients (up to 1M
//      with --max-clients) folded through one round per cohort size, at
//      1 / 8 / 64 shards. Reported per round: wall-clock, folds/s, and the
//      server's peak aggregation memory (tree accumulator + scratch + the
//      single in-flight update). The buffered-merge equivalent —
//      cohort × state_bytes, what a merge over the materialized cohort would
//      have to hold — is computed arithmetically for contrast: at 1M clients it would be
//      terabytes, which is exactly why it is not allocated here.
//   2. Invariance verdict: the same 1k-client cohort merged at shards
//      {1, 8, 64} must produce bitwise-identical roots (the DESIGN.md §16
//      contract); the process exits nonzero otherwise so CI can gate on it.
//
// BENCH_scale_shard.json records the deterministic facts (cohort sizes,
// memory curves, the invariance verdict) plus wall-clock columns, which vary
// run to run and are for plotting only.
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "fl/shard_tree.h"
#include "nn/state.h"
#include "util/atomic_file.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace qd = quickdrop;

namespace {

/// Mutates a handful of entries so every simulated client uploads a distinct
/// update without paying a full regeneration per client.
void perturb(qd::nn::ModelState& state, std::uint64_t client) {
  auto d = state.data();
  const auto n = static_cast<std::uint64_t>(d.size());
  for (int k = 0; k < 8; ++k) {
    std::uint64_t h = client * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(k);
    h ^= h >> 31;
    d[static_cast<std::size_t>(h % n)] =
        0.001f * static_cast<float>(static_cast<std::int64_t>(h % 4001) - 2000);
  }
}

struct RoundResult {
  qd::nn::ModelState root;
  double seconds = 0.0;
  std::int64_t streaming_bytes = 0;
};

/// One full round: `cohort` clients fold into a fresh tree, then the root
/// merge. The single scratch update models the one in-flight decoded state a
/// streaming server holds at a time.
RoundResult run_round(const std::shared_ptr<const qd::nn::StateLayout>& layout,
                      std::int64_t cohort, int shards, int fanout) {
  qd::fl::ShardTree tree(layout, {.shards = shards, .fanout = fanout});
  qd::nn::ModelState update{layout};
  auto d = update.data();
  for (std::size_t i = 0; i < d.size(); ++i) {
    d[i] = 0.001f * static_cast<float>(static_cast<std::int64_t>((i * 2654435761ULL) % 2003) -
                                       1001);
  }
  const auto start = std::chrono::steady_clock::now();
  double total_weight = 0.0;
  for (std::int64_t c = 0; c < cohort; ++c) {
    perturb(update, static_cast<std::uint64_t>(c));
    const double w = static_cast<double>(1 + c % 17);
    tree.fold(static_cast<int>(c), update, w);
    total_weight += w;
  }
  RoundResult r;
  r.streaming_bytes = tree.memory_bytes() + qd::nn::state_bytes(update);
  r.root = tree.finalize(1.0 / total_weight);
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return r;
}

bool bitwise_equal(const qd::nn::ModelState& a, const qd::nn::ModelState& b) {
  if (a.numel() != b.numel()) return false;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (std::bit_cast<std::uint32_t>(a.at(i)) != std::bit_cast<std::uint32_t>(b.at(i))) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  qd::CliFlags flags(argc, argv);
  const std::int64_t params = flags.get_int("params", 1 << 14);
  const std::int64_t max_clients = flags.get_int("max-clients", 100000);
  const int fanout = flags.get_int("shard-fanout", 8);
  const auto out_path = flags.get_string("out", "BENCH_scale_shard.json");
  const int threads = flags.get_int("threads", 0);
  if (threads > 0) qd::set_num_threads(threads);
  flags.check_unused();

  const auto layout = qd::nn::StateLayout::of_shapes({qd::Shape{params}});
  const std::int64_t state_bytes =
      static_cast<std::int64_t>(params) * static_cast<std::int64_t>(sizeof(float));
  std::printf("streaming sharded aggregation: %lld params (%lld KiB/state), fanout %d, "
              "%d thread(s)\n",
              static_cast<long long>(params), static_cast<long long>(state_bytes >> 10), fanout,
              qd::num_threads());

  // Invariance verdict first: same cohort, three topologies, one root.
  const auto r1 = run_round(layout, 1000, 1, fanout);
  const auto r8 = run_round(layout, 1000, 8, fanout);
  const auto r64 = run_round(layout, 1000, 64, fanout);
  const bool invariant = bitwise_equal(r1.root, r8.root) && bitwise_equal(r1.root, r64.root);
  std::printf("shard-count invariance (1k clients @ 1/8/64 shards): %s\n",
              invariant ? "bitwise identical" : "DIVERGED");

  std::vector<std::int64_t> cohorts;
  for (std::int64_t c = 10000; c <= max_clients; c *= 10) cohorts.push_back(c);

  qd::TextTable table;
  table.set_header({"clients", "shards", "levels", "wall(s)", "folds/s", "stream peak(B)",
                    "buffered(B)", "ratio"});
  std::ostringstream rows;
  for (const std::int64_t cohort : cohorts) {
    for (const int shards : {1, 8, 64}) {
      const qd::fl::ShardTree topo(layout, {.shards = shards, .fanout = fanout});
      const auto r = run_round(layout, cohort, shards, fanout);
      // What the materialize-everything engine would hold at the merge.
      const std::int64_t buffered_bytes = cohort * state_bytes;
      table.add_row({std::to_string(cohort), std::to_string(shards),
                     std::to_string(topo.levels()), qd::fmt_double(r.seconds, 3),
                     qd::fmt_double(static_cast<double>(cohort) / r.seconds, 0),
                     std::to_string(r.streaming_bytes), std::to_string(buffered_bytes),
                     qd::fmt_double(static_cast<double>(buffered_bytes) /
                                        static_cast<double>(r.streaming_bytes),
                                    1)});
      rows << (rows.tellp() > 0 ? ",\n" : "") << "  {\"clients\": " << cohort
           << ", \"shards\": " << shards << ", \"levels\": " << topo.levels()
           << ", \"wall_seconds\": " << qd::fmt_double(r.seconds, 6)
           << ", \"streaming_peak_bytes\": " << r.streaming_bytes
           << ", \"buffered_bytes\": " << buffered_bytes << "}";
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("streaming peak memory is O(params): it does not grow with the cohort, while\n"
              "the buffered column grows linearly (a merge over the materialized cohort).\n");

  std::ostringstream json;
  json << "{\n\"params\": " << params << ",\n\"state_bytes\": " << state_bytes
       << ",\n\"fanout\": " << fanout << ",\n\"shard_invariance_bitwise\": "
       << (invariant ? "true" : "false") << ",\n\"rounds\": [\n"
       << rows.str() << "\n]\n}\n";
  qd::write_file_atomic(out_path, json.str());
  std::printf("results written to %s\n", out_path.c_str());
  return invariant ? 0 : 1;
}
