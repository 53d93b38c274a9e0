#include "schedule.h"

#include <chrono>
#include <cmath>
#include <exception>
#include <thread>

namespace perfbench {

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

int SplitMix::below(int bound) {
  return static_cast<int>(next() % static_cast<std::uint64_t>(bound));
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s, int count) {
  SplitMix rng(seed);
  std::vector<double> offsets;
  offsets.reserve(static_cast<std::size_t>(count));
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    t += -std::log1p(-rng.uniform()) / rate_per_s;
    offsets.push_back(t);
  }
  return offsets;
}

double SteadyClock::now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SteadyClock::sleep_until(double t) {
  const double wait = t - now();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

CallTiming timed_call(Clock& clock, double due, const std::function<bool()>& call) {
  CallTiming timing;
  timing.due = due;
  clock.sleep_until(due);
  timing.start = clock.now();
  try {
    timing.ok = call();
  } catch (const std::exception&) {
    timing.ok = false;
  }
  timing.end = clock.now();
  return timing;
}

}  // namespace perfbench
