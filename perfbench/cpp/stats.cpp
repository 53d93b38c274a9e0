#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

std::size_t nearest_rank(double p, std::size_t n) {
  if (!(p > 0.0 && p <= 100.0)) throw std::invalid_argument("percentile outside (0, 100]");
  if (n == 0) return 0;
  // Round p*n/100 to a whole number first when it is one up to float error,
  // so that e.g. p50 of 20 samples is rank 10, not 11.
  const double exact = p * static_cast<double>(n) / 100.0;
  const double nearest = std::round(exact);
  const double rank = std::fabs(exact - nearest) < 1e-9 ? nearest : std::ceil(exact);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

std::size_t min_samples_for(double p) {
  std::size_t n = kMinBeyond + 1;
  while (n - nearest_rank(p, n) < kMinBeyond) ++n;
  return n;
}

double percentile(std::vector<double> samples, double p, const std::string& what) {
  const std::size_t n = samples.size();
  const std::size_t rank = nearest_rank(p, n);
  if (n == 0 || n - rank < kMinBeyond) {
    throw TooFewSamples(what + ": p" + std::to_string(static_cast<int>(p)) + " needs " +
                        std::to_string(min_samples_for(p)) + " samples, have " +
                        std::to_string(n));
  }
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

}  // namespace perfbench
