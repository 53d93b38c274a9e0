// The benchmark's two workloads. Each one builds its inputs from the seed,
// does a fixed amount of work sized from Options::seconds, checks its
// outputs, and reports the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run) into the Report.
//
// Every workload reports the same metric names so the runs compare like for
// like; what a name measures on each workload is listed in
// perfbench/README.md.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "report.h"
#include "spans.h"

namespace perfbench {

void run_train(const Options& options, Report& report);
void run_http(const Options& options, Report& report);

/// Per-layer figures a workload measured in its traced run. The fields are
/// the per-layer metrics every workload reports; a layer the workload
/// bypasses reports a zero count or share, never a zero time.
struct LayerFigures {
  std::vector<double> round_s;         ///< FL round durations (callback gaps)
  std::vector<double> commit_s;        ///< store commit durations
  double commit_growth_bytes = 0.0;    ///< mean store file growth per commit
  double commit_logical_bytes = 0.0;   ///< mean serialized bytes per commit
  double train_grads_per_round = 0.0;  ///< sample gradients (local training/SGA/recovery)
  double distill_grads_per_round = 0.0;
  double distill_pct = 0.0;  ///< distillation time / (pool threads x wall)
  /// Workload-specific figures, printed and written to the layers file.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> detail;

  void add(const std::string& name, double value, const std::string& unit) {
    detail.push_back({name, {value, unit}});
  }
};

/// Reports the per-layer metrics, prints the per-layer self/inclusive span
/// table and the tracing overhead, and writes the Chrome trace plus a layers
/// file into the output directory. `wall_s` is the timed window starting at
/// `origin`; `untraced_wall_s` (0 when no untraced run of this seed has been
/// recorded yet) gives the measured tracing overhead.
void report_layers(const Options& options, Report& report, const LayerFigures& layers,
                   const std::vector<std::vector<Span>>& threads, double origin, double wall_s,
                   double untraced_wall_s);

}  // namespace perfbench
