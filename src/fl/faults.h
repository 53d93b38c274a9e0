// Deterministic fault injection for the federation runtime.
//
// Real FL deployments lose clients to crashes and stragglers and receive
// corrupted uploads (NaN/Inf tensors, exploded norms, stale parameters).
// A FaultPlan decides, purely from its seed, which fault (if any) strikes a
// given (round, attempt, client) triple — so a whole fault scenario is
// reproducible bit-for-bit from one integer, independent of execution order.
// DefenseConfig describes the server-side countermeasures the resilient
// engine (fl/resilient.h) applies against them.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "nn/state.h"
#include "util/rng.h"

namespace quickdrop::fl {

/// What happens to one client in one round attempt.
enum class FaultKind {
  kNone = 0,
  /// Client crashes before doing any work; the server never hears from it.
  kCrash,
  /// Client finishes its local update but misses the simulated round
  /// deadline; the server discards the late upload.
  kStraggler,
  /// Upload arrives with NaN entries (diverged local training, bad memory).
  kCorruptNan,
  /// Upload arrives with Inf entries.
  kCorruptInf,
  /// Upload arrives finite but with a pathologically exploded norm.
  kExplodedNorm,
  /// Client echoes the parameters it started the round with instead of its
  /// trained state (stale cache / skipped work). Finite and small-normed, so
  /// server-side validation cannot distinguish it from honest work — it
  /// merely dilutes the aggregate.
  kStaleUpdate,
};

/// Human-readable name ("crash", "straggler", ...).
const char* fault_kind_name(FaultKind kind);

/// Per-(round, client) independent probabilities of each fault kind.
/// The kinds are mutually exclusive within one attempt; rates must be finite,
/// non-negative and sum to at most 1.
struct FaultRates {
  float crash = 0.0f;
  float straggler = 0.0f;
  float corrupt_nan = 0.0f;
  float corrupt_inf = 0.0f;
  float exploded_norm = 0.0f;
  float stale_update = 0.0f;

  [[nodiscard]] float total() const {
    return crash + straggler + corrupt_nan + corrupt_inf + exploded_norm + stale_update;
  }
  /// Throws std::invalid_argument if any rate is non-finite, negative, or the
  /// rates sum to more than 1.
  void validate() const;
};

/// Seed-driven schedule of faults. Copyable value type; the default instance
/// injects nothing.
class FaultPlan {
 public:
  /// No faults.
  FaultPlan() = default;

  /// Random faults at the given rates, derived deterministically from `seed`.
  FaultPlan(std::uint64_t seed, FaultRates rates);

  /// Convenience: each sampled client independently crashes with
  /// probability `rate` (client dropout).
  static FaultPlan bernoulli_crash(std::uint64_t seed, float rate);

  /// Scripts a specific fault for (round, client); fires on the first
  /// attempt of the round only, so retried rounds see a healthy cohort.
  /// Scripted faults take precedence over the random schedule. For tests and
  /// targeted what-if experiments.
  void inject(int round, int client, FaultKind kind);

  /// The fault striking `client` in attempt `attempt` of `round`.
  /// Deterministic: same plan, same arguments => same answer, regardless of
  /// call order or how often it is called.
  [[nodiscard]] FaultKind fault_for(int round, int attempt, int client) const;

  /// True if this plan can ever inject a fault.
  [[nodiscard]] bool any() const { return rates_.total() > 0.0f || !scripted_.empty(); }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] const FaultRates& rates() const { return rates_; }

 private:
  std::uint64_t seed_ = 0;
  FaultRates rates_;
  std::map<std::pair<int, int>, FaultKind> scripted_;  // (round, client) -> kind
};

/// Applies a corruption fault to an uploaded state in place. `round_start`
/// is the global state the client downloaded (what a stale client echoes);
/// `rng` drives which entries are damaged. kNone/kCrash/kStraggler are no-ops.
void apply_corruption(FaultKind kind, nn::ModelState& upload, const nn::ModelState& round_start,
                      Rng& rng);

/// Server-side defenses of the resilient engine.
struct DefenseConfig {
  /// Reject uploads containing NaN/Inf entries.
  bool validate_finite = true;
  /// Reject uploads whose update norm ||local - global|| exceeds this
  /// multiple of the cohort's median update norm (needs >= 3 deliveries to
  /// be meaningful). 0 disables the outlier check.
  float norm_outlier_multiplier = 0.0f;
  /// Absolute cap on the update norm; 0 disables.
  float max_update_norm = 0.0f;
  /// Minimum fraction of the *sampled* cohort that must deliver valid
  /// updates, else the round is retried with fresh sampling. 0 disables
  /// quorum (any nonempty set of valid updates aggregates).
  float min_quorum = 0.0f;
  /// Total attempts per round (first try + retries). Must be >= 1.
  int max_round_attempts = 1;
  /// Simulated backoff before attempt k (1-based retry): base * 2^(k-1)
  /// seconds, accumulated into CostMeter::sim_backoff_seconds.
  float retry_backoff_seconds = 1.0f;

  /// Throws std::invalid_argument on non-finite or out-of-range settings.
  void validate() const;
};

}  // namespace quickdrop::fl
