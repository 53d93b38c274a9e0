// The weighted-average merge of client states, two ways: the serial
// double-precision oracle (each element summed over the states in index
// order, rounded once to float) and the merge the library runs (a
// single-lane nn::StateAccumulator fed in index order). The two must agree
// bit for bit.
#pragma once

#include <cstdint>
#include <span>

#include "nn/state.h"
#include "nn/state_accumulator.h"

namespace quickdrop::nn::testing {

inline ModelState serial_weighted_average(std::span<const ModelState> states,
                                          std::span<const float> weights) {
  ModelState out{states.front().layout()};
  for (std::int64_t u = 0; u < out.numel(); ++u) {
    double acc = 0.0;
    for (std::size_t c = 0; c < states.size(); ++c) {
      acc += static_cast<double>(weights[c]) * static_cast<double>(states[c].at(u));
    }
    out.data()[static_cast<std::size_t>(u)] = static_cast<float>(acc);
  }
  return out;
}

inline ModelState single_lane_merge(std::span<const ModelState> states,
                                    std::span<const float> weights) {
  StateAccumulator acc(states.front().layout(), /*lanes=*/1);
  for (std::size_t c = 0; c < states.size(); ++c) {
    acc.fold(states[c], static_cast<double>(weights[c]));
  }
  return acc.finalize();
}

}  // namespace quickdrop::nn::testing
