// What one benchmark run reports: metrics by name and unit, output checks,
// attempted/failed operation counts, and the cross-run facts file that pins
// exact results per seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line settings of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;     ///< sizes the fixed amount of work (never a deadline)
  bool trace = false;   ///< per-layer run: spans on, per-layer metrics out
  std::string out_dir;  ///< traces, stores and the facts files live here
  /// Names the code that was built (see self_build_id), so facts recorded
  /// by one build are never checked against another's.
  std::string build_id;
};

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records an output check; prints it and fails the run when !ok.
  void check(const std::string& name, bool ok, const std::string& detail);

  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  [[nodiscard]] bool correct() const { return checks_failed_ == 0 && failed_ == 0; }

  /// The one-line JSON result: correct, attempted, failed, metrics.
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  int checks_failed_ = 0;
};

/// Exact results of a (build, workload, seed, size) kept across runs in one
/// output directory. The first run of a build records them; every later run
/// of the same key — traced or not — must reproduce them bit for bit. A
/// rebuild of different code starts fresh facts, since a change may
/// legitimately move a digest or a count.
class Facts {
 public:
  Facts(const Options& options, const std::string& size_tag);

  /// Checks `value` against the stored fact `key` (recording it when new).
  void expect(Report& report, const std::string& key, const std::string& value);
  /// A measurement kept for comparison, not checked (e.g. untraced wall time).
  void note(const std::string& key, double value) { notes_[key] = value; }
  /// A note an earlier run of this key recorded, or 0 when there is none.
  [[nodiscard]] double stored_note(const std::string& key) const {
    const auto it = stored_notes_.find(key);
    return it == stored_notes_.end() ? 0.0 : it->second;
  }

  /// Writes the facts file (only when every expectation held).
  void save(const Report& report) const;

 private:
  std::string path_;
  std::map<std::string, std::string> stored_;
  std::map<std::string, std::string> values_;
  std::map<std::string, double> stored_notes_;
  std::map<std::string, double> notes_;
};

/// CRC-64 of this program's own executable, as 16 hex digits.
std::string self_build_id();

/// Exact decimal rendering of a double (17 significant digits).
std::string exact(double value);

/// Peak resident set size of this process in MiB (getrusage).
double peak_rss_mib();

}  // namespace perfbench
