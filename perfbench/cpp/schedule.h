// Seeded arrival schedules and open-loop call timing.
//
// An open-loop generator sends on a schedule whether or not earlier calls
// have returned, so every call is timed from when it was *due*, not from when
// the generator got round to sending it: a stall (a call blocked behind a
// server-side drain) then shows up in the latency of every later call it
// delayed, instead of silently thinning the load.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// Deterministic 64-bit generator (splitmix64) so schedules depend only on
/// the seed, never on the standard library's distribution implementations.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [0, bound).
  int below(int bound);

 private:
  std::uint64_t state_;
};

/// Arrival offsets (seconds from the start) of `count` Poisson arrivals at
/// `rate_per_s`: exponential gaps drawn from `seed`.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s, int count);

/// Time source of the open-loop generator; tests substitute a fake.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Seconds since an arbitrary fixed origin.
  virtual double now() = 0;
  /// Returns once now() >= t (immediately when t has passed).
  virtual void sleep_until(double t) = 0;
};

/// std::chrono::steady_clock.
class SteadyClock : public Clock {
 public:
  double now() override;
  void sleep_until(double t) override;
};

/// One call's timing, all in Clock seconds.
struct CallTiming {
  double due = 0.0;    ///< when the schedule said to send it
  double start = 0.0;  ///< when the generator actually sent it (>= due)
  double end = 0.0;    ///< when the response was complete
  bool ok = false;

  /// Response time as the caller sees it: from the due time.
  [[nodiscard]] double latency() const { return end - due; }
  /// How late the generator ran.
  [[nodiscard]] double lag() const { return start - due; }
};

/// Times one call due at `due`: waits until it is due (not at all when the
/// generator is already late), runs it, and records start and end. `call`
/// returns whether it succeeded; a call that throws counts as failed.
CallTiming timed_call(Clock& clock, double due, const std::function<bool()>& call);

}  // namespace perfbench
