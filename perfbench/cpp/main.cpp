// perfbench — the repository's end-to-end benchmark program.
//
//   perfbench --workload train|http --seed N --seconds S --trace 0|1
//             --out-dir DIR
//
// Runs one workload with a fixed amount of work derived from --seconds and
// inputs derived from --seed, checks its outputs, and prints one JSON object
// as its last line: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// records spans and reports the per-layer ones instead. Exits non-zero when
// any check fails. The exact results of each seed are kept in DIR under a
// CRC-64 of this executable, so only runs of one build are compared.
// Normally started through perfbench/run.py, which builds this binary first.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "util/logging.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload train|http --seed N --seconds S "
               "--trace 0|1 --out-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stoi(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--out-dir") {
        options.out_dir = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (!have_workload || options.out_dir.empty() || options.seconds < 1) return usage();
  std::filesystem::create_directories(options.out_dir);
  quickdrop::set_log_level(quickdrop::LogLevel::kWarn);

  perfbench::Report report;
  try {
    options.build_id = perfbench::self_build_id();
    if (options.workload == "train") {
      perfbench::run_train(options, report);
    } else if (options.workload == "http") {
      perfbench::run_http(options, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    report.check("workload completed", false, e.what());
  }
  std::fflush(stdout);
  std::printf("%s\n", report.json().c_str());
  return report.correct() ? 0 : 1;
}
