#include "report.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <span>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/crc64.h"

namespace perfbench {

void Report::metric(const std::string& name, double value, const std::string& unit) {
  std::printf("metric %-28s %.9g %s\n", name.c_str(), value, unit.c_str());
  if (!std::isfinite(value)) check("metric " + name + " finite", false, "not finite");
  metrics_.push_back(Metric{name, value, unit});
}

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  std::printf("check  %-28s %s%s%s\n", name.c_str(), ok ? "ok" : "FAILED",
              detail.empty() ? "" : ": ", detail.c_str());
  if (!ok) ++checks_failed_;
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted_
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0);
    out << (i ? ", " : "") << "\"" << metrics_[i].name << "\": {\"value\": " << value
        << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

Facts::Facts(const Options& options, const std::string& size_tag)
    : path_(options.out_dir + "/" + options.workload + "-seed" + std::to_string(options.seed) +
            "-" + size_tag + "-" + options.build_id + ".facts") {
  std::ifstream in(path_);
  std::string kind, key, value;
  while (in >> kind >> key >> value) {
    if (kind == "fact") {
      stored_[key] = value;
    } else if (kind == "note") {
      stored_notes_[key] = std::stod(value);
    }
  }
}

void Facts::expect(Report& report, const std::string& key, const std::string& value) {
  values_[key] = value;
  const auto it = stored_.find(key);
  if (it == stored_.end()) {
    report.check("repeat " + key, true, "first run of this seed, recorded " + value);
    return;
  }
  report.check("repeat " + key, it->second == value,
               it->second == value ? value : "was " + it->second + ", now " + value);
}

void Facts::save(const Report& report) const {
  if (!report.correct()) return;
  std::map<std::string, std::string> facts = stored_;
  for (const auto& [key, value] : values_) facts[key] = value;
  std::map<std::string, double> notes = stored_notes_;
  for (const auto& [key, value] : notes_) notes[key] = value;
  std::ofstream out(path_, std::ios::trunc);
  for (const auto& [key, value] : facts) out << "fact " << key << " " << value << "\n";
  for (const auto& [key, value] : notes) out << "note " << key << " " << exact(value) << "\n";
}

std::string self_build_id() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                        std::istreambuf_iterator<char>());
  if (bytes.empty()) throw std::runtime_error("cannot read /proc/self/exe");
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(quickdrop::crc64(std::span(bytes))));
  return hex;
}

std::string exact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
