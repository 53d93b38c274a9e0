#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::open(const char* name, std::int64_t id, double start) {
  if (!enabled_) return -1;
  spans_.push_back(Span{.name = name,
                        .start = start,
                        .end = start,
                        .parent = open_.empty() ? -1 : open_.back(),
                        .id = id,
                        .thread = thread_});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::close(int index, double end) {
  if (!enabled_) return;
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("Tracer::close: span is not the innermost open span");
  }
  spans_[static_cast<std::size_t>(index)].end = end;
  open_.pop_back();
}

void Tracer::add(const char* name, std::int64_t id, double start, double end) {
  if (!enabled_) return;
  spans_.push_back(Span{.name = name,
                        .start = start,
                        .end = end,
                        .parent = open_.empty() ? -1 : open_.back(),
                        .id = id,
                        .thread = thread_});
}

std::vector<Span> spans_since(const std::vector<Span>& spans, double t) {
  std::vector<int> index(spans.size(), -1);
  std::vector<Span> kept;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].start < t) continue;
    index[i] = static_cast<int>(kept.size());
    kept.push_back(spans[i]);
    const int parent = kept.back().parent;
    kept.back().parent = parent >= 0 ? index[static_cast<std::size_t>(parent)] : -1;
  }
  return kept;
}

double self_seconds(const std::vector<Span>& spans, std::size_t index) {
  const Span& span = spans.at(index);
  std::vector<std::pair<double, double>> children;
  for (const auto& child : spans) {
    if (child.parent != static_cast<int>(index)) continue;
    const double lo = std::max(child.start, span.start);
    const double hi = std::min(child.end, span.end);
    if (hi > lo) children.emplace_back(lo, hi);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = span.start;
  for (const auto& [lo, hi] : children) {
    const double from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  return (span.end - span.start) - covered;
}

std::vector<LayerRow> layer_table(const std::vector<std::vector<Span>>& threads) {
  std::map<std::string, LayerRow> by_name;
  for (const auto& spans : threads) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
      auto& row = by_name[spans[i].name];
      row.name = spans[i].name;
      ++row.count;
      row.inclusive_s += spans[i].end - spans[i].start;
      row.self_s += self_seconds(spans, i);
    }
  }
  std::vector<LayerRow> rows;
  for (auto& [name, row] : by_name) rows.push_back(std::move(row));
  std::stable_sort(rows.begin(), rows.end(),
                   [](const LayerRow& a, const LayerRow& b) { return a.self_s > b.self_s; });
  return rows;
}

std::string format_layer_table(const std::vector<LayerRow>& rows, double wall_s) {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof line, "%-24s %8s %12s %12s %8s\n", "span", "count", "incl_ms",
                "self_ms", "self%");
  out += line;
  double total_self = 0.0;
  for (const auto& row : rows) {
    std::snprintf(line, sizeof line, "%-24s %8lld %12.3f %12.3f %7.2f%%\n", row.name.c_str(),
                  static_cast<long long>(row.count), row.inclusive_s * 1e3, row.self_s * 1e3,
                  wall_s > 0 ? 100.0 * row.self_s / wall_s : 0.0);
    out += line;
    total_self += row.self_s;
  }
  std::snprintf(line, sizeof line, "%-24s %8s %12s %12.3f %7.2f%%  (wall %.3f ms)\n", "total",
                "", "", total_self * 1e3, wall_s > 0 ? 100.0 * total_self / wall_s : 0.0,
                wall_s * 1e3);
  out += line;
  return out;
}

std::string chrome_trace_json(const std::vector<std::vector<Span>>& threads, double origin) {
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  char line[320];
  for (const auto& spans : threads) {
    for (const auto& span : spans) {
      std::snprintf(line, sizeof line,
                    "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                    "\"dur\": %.3f, \"args\": {\"id\": %lld, \"parent\": %d}}",
                    first ? "" : ",\n", span.name.c_str(), span.thread,
                    (span.start - origin) * 1e6, (span.end - span.start) * 1e6,
                    static_cast<long long>(span.id), span.parent);
      out += line;
      first = false;
    }
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
