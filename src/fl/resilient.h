// Fault-tolerant federation round engine: the one FedAvg round path for FL
// training, SGA unlearning, recovery, relearning and every baseline.
//
// Executes blocks of FedAvg rounds while surviving the fault model of
// fl/faults.h: crashed clients are skipped, stragglers' late uploads are
// discarded, and corrupted uploads are quarantined by a server-side
// validation pass (finiteness + norm-outlier checks). A quorum policy can
// retry a round with fresh sampling when too few valid updates arrive, with
// exponential-backoff accounting. The aggregated global state is guaranteed
// all-finite every round. Round-level resume is supported via `start_round`
// plus a per-round cursor callback that exposes the engine RNG for
// checkpointing (see core/checkpoint.h RoundCursor).
//
// Aggregation streams through the fl/shard_tree.h hierarchical accumulator:
// accepted updates fold into per-lane double accumulators wave by wave and
// are discarded. With no norm-outlier rule configured a wave is a few
// clients, so a round's peak server memory is O(params) regardless of cohort
// size; with the rule on a wave is the whole cohort (DESIGN.md §16).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "data/dataset.h"
#include "fl/client_update.h"
#include "fl/cost.h"
#include "fl/faults.h"
#include "fl/quantize.h"
#include "fl/shard_tree.h"
#include "nn/state.h"

namespace quickdrop::fl {

/// Invoked after each aggregation with the round index and new global state.
using RoundCallback = std::function<void(int round, const nn::ModelState& state)>;

/// Invoked after each client's local update with the client's resulting local
/// state and the global state it started from. Only fires for updates that
/// passed server-side validation (a quarantined upload must not leak into
/// e.g. FedEraser's historical record). FedEraser uses this to record
/// historical parameter updates during training.
using ClientStateCallback = std::function<void(int round, int client,
                                               const nn::ModelState& local_state,
                                               const nn::ModelState& global_before)>;

/// Invoked after every *completed* round (aggregated or lost) with the new
/// global state and the engine RNG as it stands entering the next round.
/// Serializing (state, rng) yields a cursor from which the run can be resumed
/// bit-identically via `ResilientConfig::start_round`.
using RoundCursorCallback =
    std::function<void(int completed_round, const nn::ModelState& state, const Rng& rng)>;

/// Configuration of a block of resilient rounds.
struct ResilientConfig {
  int rounds = 1;
  /// Fraction of eligible clients sampled per round (1.0 = all). Clients
  /// with empty datasets are never eligible.
  float participation = 1.0f;
  /// Fault schedule (default: none).
  FaultPlan faults;
  /// Server-side defenses (default: finiteness validation only, one attempt
  /// per round, no quorum).
  DefenseConfig defense;
  /// First round index to execute (resume support): rounds
  /// [start_round, rounds) run. The caller must supply the global state and
  /// RNG captured by the cursor of round start_round - 1.
  int start_round = 0;
  /// Optional: enables concurrent client execution. When set and the global
  /// thread pool has more than one thread, each round's sampled clients run
  /// in parallel on per-worker scratch models built by this factory (called
  /// serially from the engine thread; the models' initial parameter values
  /// are irrelevant — every client loads the global state first). Results
  /// are bit-identical to the serial path at any thread count: per-client
  /// randomness is tag-split from (round, client), per-client costs are
  /// merged in cohort order, and validation + aggregation stay serial in
  /// fixed client-index order. When empty (default), clients run serially
  /// on the caller's scratch model.
  ModelFactory client_model_factory;
  /// Client→server update transport. With a quantizing codec, each client
  /// ships its encoded state delta (see fl/quantize.h) instead of the raw
  /// fp32 state; the server validates and folds `global + delta` straight
  /// from the frame, and a delta that fails to decode is quarantined like a
  /// corrupted upload. Uploaded-byte accounting reflects the wire size.
  TransportConfig transport;
  /// Shard-tree aggregation topology (fl/shard_tree.h). Every accepted update
  /// folds through the canonical 64-lane streaming accumulator regardless of
  /// the shard count, so the merged bits are identical for any
  /// shards/fanout setting; the knobs re-partition ownership + accounting.
  /// Each accepted update is folded and discarded wave by wave. The
  /// norm-outlier rule (the only validation that needs the cohort's norms at
  /// once) makes a wave the whole cohort; otherwise a wave holds a few
  /// clients. Updates fold in cohort order either way, so the wave size
  /// never changes the global's bits.
  AggregationConfig aggregation;
};

/// Runs rounds [config.start_round, config.rounds) of fault-tolerant FedAvg:
/// each sampled client loads the global state into `model`, applies `update`,
/// and the server validates + aggregates surviving states weighted by
/// |Z_i|/|Z| over accepted participants. A round with no acceptable update
/// after all attempts is lost (the global state carries over). Returns the
/// final global state, which is always all-finite.
///
/// `model` is scratch storage reused across clients; its parameters are
/// overwritten.
nn::ModelState run_resilient(nn::Module& model, nn::ModelState global,
                             const std::vector<data::Dataset>& client_data, ClientUpdate& update,
                             const ResilientConfig& config, Rng& rng, CostMeter& cost,
                             const RoundCallback& callback = {},
                             const ClientStateCallback& client_callback = {},
                             const RoundCursorCallback& cursor_callback = {});

/// Total samples across client datasets.
std::int64_t total_samples(const std::vector<data::Dataset>& client_data);

}  // namespace quickdrop::fl
