#include <cstdio>
#include <fstream>

#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Layers whose share of the traced wall time every workload reports.
constexpr const char* kLayers[] = {"fl", "store", "serve", "net", "metrics"};

/// Cost of recording one span, measured on a scratch tracer, for the
/// overhead estimate printed beside the measured one.
double seconds_per_span() {
  constexpr int kSpans = 20000;
  Tracer scratch(true, 0);
  const double t0 = now_s();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span(scratch, "calibrate", i);
  }
  return (now_s() - t0) / kSpans;
}

}  // namespace

void report_layers(const Options& options, Report& report, const LayerFigures& layers,
                   const std::vector<std::vector<Span>>& threads, double origin, double wall_s,
                   double untraced_wall_s) {
  report.metric("fl.round_ms_p50", 1e3 * percentile(layers.round_s, 50, "FL round"), "ms");
  report.metric("fl.round_ms_p75", 1e3 * percentile(layers.round_s, 75, "FL round"), "ms");
  report.metric("store.commit_ms_p50", 1e3 * percentile(layers.commit_s, 50, "store commit"),
                "ms");
  report.metric("store.commit_ms_p75", 1e3 * percentile(layers.commit_s, 75, "store commit"),
                "ms");
  report.metric("store.commit_kb", layers.commit_growth_bytes / 1024.0, "KiB");
  report.metric("store.dedup_pct",
                layers.commit_logical_bytes > 0
                    ? 100.0 * (1.0 - layers.commit_growth_bytes / layers.commit_logical_bytes)
                    : 0.0,
                "%");
  report.metric("core.train_kgrads_per_round", layers.train_grads_per_round / 1e3, "k");
  report.metric("core.distill_kgrads_per_round", layers.distill_grads_per_round / 1e3, "k");
  report.metric("core.distill_pct", layers.distill_pct, "%");

  const auto rows = layer_table(threads);
  std::size_t spans = 0;
  for (const auto& t : threads) spans += t.size();
  for (const char* layer : kLayers) {
    const std::string prefix = std::string(layer) + ".";
    double self = 0.0;
    for (const auto& row : rows) {
      if (row.name.rfind(prefix, 0) == 0) self += row.self_s;
    }
    report.metric(prefix + "self_pct", 100.0 * self / wall_s, "%");
  }

  for (const auto& [name, value] : layers.detail) {
    std::printf("layer  %-28s %.9g %s\n", name.c_str(), value.first, value.second.c_str());
  }
  std::printf("\nper-layer self/inclusive time over the %.3f s window (%zu spans):\n%s\n", wall_s,
              spans, format_layer_table(rows, wall_s).c_str());
  const double per_span = seconds_per_span();
  const double estimate = static_cast<double>(spans) * per_span;
  std::printf("tracing overhead: %zu spans x %.0f ns = %.3f ms (%.3f%% of the window)", spans,
              1e9 * per_span, 1e3 * estimate, 100.0 * estimate / wall_s);
  if (untraced_wall_s > 0) {
    std::printf("; traced window vs this seed's untraced run: %+.2f%%\n",
                100.0 * (wall_s / untraced_wall_s - 1.0));
  } else {
    std::printf("; no untraced run of this seed recorded yet\n");
  }

  const std::string stem = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed);
  std::ofstream(stem + ".trace.json") << chrome_trace_json(threads, origin);
  std::ofstream layers_out(stem + ".layers.txt");
  for (const auto& [name, value] : layers.detail) {
    layers_out << name << " " << exact(value.first) << " " << value.second << "\n";
  }
  layers_out << "\n" << format_layer_table(rows, wall_s);
  std::printf("trace written to %s.trace.json, layer table to %s.layers.txt\n", stem.c_str(),
              stem.c_str());
}

}  // namespace perfbench
