// Wall-clock spans recorded by the benchmark around each call into a layer.
//
// Each thread owns one Tracer, so recording never writes shared memory; the
// buffers are merged when the run ends and written as Chrome trace-event
// JSON (loadable in chrome://tracing or Perfetto) plus a per-layer table of
// inclusive and self time. A span's self time is its duration minus the part
// of it covered by its child spans. With tracing off, every recording call
// returns after one branch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock seconds; the time base of every span.
double now_s();

struct Span {
  std::string name;  ///< "<layer>.<what>", e.g. "store.commit"
  double start = 0.0;
  double end = 0.0;
  int parent = -1;        ///< index into the same thread's span list, -1 = root
  std::int64_t id = -1;   ///< round or request id, -1 when none
  int thread = 0;
};

class Tracer {
 public:
  Tracer(bool enabled, int thread) : enabled_(enabled), thread_(thread) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span nested under the innermost open span. Returns its index,
  /// or -1 when tracing is off.
  int open(const char* name, std::int64_t id, double start);
  /// Closes the span `open` returned (which must be the innermost open one).
  void close(int index, double end);
  /// Records an already-finished span under the innermost open span — used
  /// for intervals measured between two callbacks.
  void add(const char* name, std::int64_t id, double start, double end);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  int thread_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span over a scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int64_t id = -1)
      : tracer_(tracer), index_(tracer.enabled() ? tracer.open(name, id, now_s()) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_.close(index_, now_s());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// The spans of one thread's list that start at or after `t`, with parent
/// links to dropped spans cut (those spans become roots).
std::vector<Span> spans_since(const std::vector<Span>& spans, double t);

/// Duration of span `index` minus the union of its children's intervals
/// (clipped to the span).
double self_seconds(const std::vector<Span>& spans, std::size_t index);

struct LayerRow {
  std::string name;
  std::int64_t count = 0;
  double inclusive_s = 0.0;
  double self_s = 0.0;
};

/// Per-name totals over every thread's spans, sorted by self time (largest
/// first). Each inner vector is one thread's span list.
std::vector<LayerRow> layer_table(const std::vector<std::vector<Span>>& threads);

/// Fixed-width text rendering of a layer table; shares are of `wall_s`.
std::string format_layer_table(const std::vector<LayerRow>& rows, double wall_s);

/// Chrome trace-event JSON ("X" complete events, microseconds relative to
/// `origin`).
std::string chrome_trace_json(const std::vector<std::vector<Span>>& threads, double origin);

}  // namespace perfbench
