// Sample statistics for the benchmark's reported timings.
//
// Percentiles are nearest-rank: the p-th percentile of n sorted samples is
// the sample at rank ceil(p/100 * n). A percentile is only reported when at
// least kMinBeyond samples lie above its rank, so a tail figure always rests
// on more than a handful of observations; asking for one with too few
// samples throws, which fails the run instead of printing a noisy number.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly above a reported percentile's rank.
inline constexpr std::size_t kMinBeyond = 10;

/// Thrown when a percentile is requested without enough samples beyond it.
struct TooFewSamples : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among n samples.
std::size_t nearest_rank(double p, std::size_t n);

/// Smallest sample count for which percentile `p` has kMinBeyond samples
/// above its rank.
std::size_t min_samples_for(double p);

/// Nearest-rank percentile. Throws TooFewSamples unless at least kMinBeyond
/// samples lie above the rank; `what` names the series in the message.
double percentile(std::vector<double> samples, double p, const std::string& what);

double mean(const std::vector<double>& samples);

}  // namespace perfbench
