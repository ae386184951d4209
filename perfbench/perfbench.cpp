// perfbench: the repository benchmark's entry point (README.md).
//
//   perfbench --workload hot_replay|cold_series|ingest_mixed --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--trace-dir DIR]
//
// Prints a human-readable report, then, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics,
// or with --trace 1 the per-layer metrics of a traced run.  Exits 0 when a
// report was printed (check "correct"), 1 when the benchmark could not
// run, 2 on bad arguments.
#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "driver.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload hot_replay|cold_series|"
               "ingest_mixed --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--trace-dir DIR]\n");
  return 2;
}

void print_json(const perfbench::Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's adaptive mmap and trim thresholds.  Left adaptive, the
  // multi-hundred-KiB result buffers flip between heap and fresh mmap
  // pages depending on allocation history, which moved the hot_replay
  // median by up to 70% between otherwise identical runs.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      const auto w = perfbench::parse_workload(value);
      if (!w) return usage();
      opt.workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else if (arg == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || !(opt.seconds > 0)) return usage();
  const std::string tag = perfbench::workload_name(opt.workload);
  if (opt.work_dir.empty()) {
    opt.work_dir = ".bench_build/work-" + std::to_string(::getpid());
  }
  if (opt.trace && opt.trace_dir.empty()) {
    opt.trace_dir = ".bench_build/traces/" + tag;
  }
  try {
    const perfbench::Report report = perfbench::run_workload(opt);
    for (const std::string& line : report.lines) {
      std::printf("%s\n", line.c_str());
    }
    for (const perfbench::Metric& m : report.metrics) {
      std::printf("%-38s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    print_json(report);
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
