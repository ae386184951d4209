// perfbench driver: builds a workload's repository, starts an in-process
// cubed (AnalysisService + CubedServer over a real unix socket), drives
// the workload's sessions through CubeClient, checks outputs against
// in-process QueryEngine runs, and reports metrics (README.md).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "gen.hpp"

namespace perfbench {

struct Options {
  Workload workload = Workload::HotReplay;
  std::uint64_t seed = 1;
  /// Length of the timed phase.
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Scratch directory for the repository and the socket; created, and
  /// removed again at the end.  May be relative (socket paths are short).
  std::filesystem::path work_dir;
  /// Where a traced run writes its exports; empty writes none.
  std::filesystem::path trace_dir;
  /// Count mode (tests): each session sends exactly this many queries and
  /// the ingest writer stores exactly ingest_stores runs, instead of
  /// running for `seconds`.
  std::size_t queries_per_session = 0;
  std::size_t ingest_stores = 0;
  /// Repository builds + daemon starts; setup_s is their median.
  int setups = 3;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Counts that repeat exactly for a given seed in count mode.
struct ExactCounts {
  std::uint64_t requests = 0;
  std::uint64_t request_digest = 0;  ///< fold of the generated requests
  std::uint64_t wire_bytes = 0;
  std::uint64_t operands_loaded = 0;
  std::uint64_t kernel_cells = 0;
  std::uint64_t stores = 0;
  std::uint64_t seals = 0;
  std::uint64_t compactions = 0;
};

struct Report {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics, or per-layer ones for a traced run.
  std::vector<Metric> metrics;
  /// Human-readable report lines (percentiles with sample counts, checks).
  std::vector<std::string> lines;
  ExactCounts counts;
};

/// Runs one workload end to end.  Throws cube::Error only when the
/// benchmark itself cannot run (no socket, unwritable directory).
[[nodiscard]] Report run_workload(const Options& options);

}  // namespace perfbench
