// bench_repo_scale: out-of-core repository scaling (EXPERIMENTS.md, A15).
//
// Two self-checking gates over the sharded repository layout
// (docs/STORAGE.md):
//
//   store   With N entries already indexed, the next store() must be
//           O(1) under the segmented index where the legacy monolithic
//           index.xml made it O(repo): the measured per-store cost
//           ratio legacy/sharded must be >= 10x at the full N (10k
//           entries), and the sharded per-store cost must stay flat
//           (< 4x) between a near-empty and a full repository.
//
//   stream  An n-ary mean over a columnar (CUBESEV1) series whose total
//           bytes exceed a resident-memory budget must complete with
//           peak RSS growth under that budget — the mmap-backed
//           operands stream through the batched kernels with consumed
//           pages released — and the result must be BIT-IDENTICAL to
//           the same reduction over fully-loaded in-memory stores.
//
// Usage: bench_repo_scale [--quick] [--store-only|--stream-only]
//   --quick scales N and the series down for ctest; the full run
//   reproduces the A15 numbers.  Exit code 0 iff every gate holds.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "algebra/operators.hpp"
#include "bench_util.hpp"
#include "io/repository.hpp"
#include "io/severity_format.hpp"
#include "model/experiment.hpp"

namespace {

using cube::Experiment;
using cube::ExperimentRepository;
using cube::OperatorOptions;
using cube::RepoFormat;
using cube::RepoLayout;
using cube::StorageKind;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set size (VmHWM) in bytes, from /proc/self/status.
std::size_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::size_t>(
                 std::strtoull(line.c_str() + 6, nullptr, 10)) *
             1024;
    }
  }
  return 0;
}

/// Resets VmHWM to the current RSS ("5" per proc(5)); returns false when
/// the kernel interface is unavailable (the stream gate is then skipped).
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear) return false;
  clear << "5";
  return static_cast<bool>(clear.flush());
}

/// A tiny experiment: the store gate times the INDEX write, so the
/// experiment payload is kept as small as the model allows.  All tiny
/// experiments share one metadata digest — the content-addressed blob is
/// written once and each store() cost is file + index only.
Experiment make_tiny(std::size_t i) {
  cube::bench::Shape shape;
  shape.metrics = 2;
  shape.cnodes = 4;
  shape.threads = 2;
  shape.fill = 1.0;
  shape.seed = 7;
  Experiment e = cube::bench::make_experiment(shape);
  e.set_name("run-" + std::to_string(i));
  e.set_attribute("series", "scale");
  return e;
}

/// Populates a fresh repository of `layout` with `n` entries and returns
/// the measured per-store cost (ms) of the LAST `k` stores — i.e. the
/// marginal store cost at repository size ~n.
double per_store_ms(const std::filesystem::path& dir, RepoLayout layout,
                    std::size_t n, std::size_t k) {
  std::filesystem::remove_all(dir);
  ExperimentRepository repo(dir, layout);
  for (std::size_t i = 0; i + k < n; ++i) repo.store(make_tiny(i));
  const double t0 = now_ms();
  for (std::size_t i = n - k; i < n; ++i) repo.store(make_tiny(i));
  const double t1 = now_ms();
  std::filesystem::remove_all(dir);
  return (t1 - t0) / static_cast<double>(k);
}

bool run_store_gate(const std::filesystem::path& base, bool quick) {
  // Quick mode still needs the legacy O(repo) cost far enough from the
  // sharded layout's fixed per-store floor that the 10x gate has margin:
  // at n=1500 the measured ratio hovers at ~9-11x and flakes.
  const std::size_t n = quick ? 3000 : 10000;
  const std::size_t k = 50;
  const std::size_t n0 = 100;

  const double sharded_small =
      per_store_ms(base / "sharded_small", RepoLayout::Sharded, n0, k);
  const double sharded_full =
      per_store_ms(base / "sharded_full", RepoLayout::Sharded, n, k);
  const double legacy_full =
      per_store_ms(base / "legacy_full", RepoLayout::Legacy, n, k);

  const double ratio = legacy_full / sharded_full;
  const double growth = sharded_full / sharded_small;
  std::printf("store  n=%zu  legacy %.3f ms/store  sharded %.3f ms/store  "
              "ratio %.1fx  (sharded growth %zu->%zu: %.2fx)\n",
              n, legacy_full, sharded_full, ratio, n0, n, growth);

  bool ok = true;
  if (ratio < 10.0) {
    std::printf("FAIL store: legacy/sharded per-store ratio %.1fx < 10x\n",
                ratio);
    ok = false;
  }
  if (growth > 4.0) {
    std::printf("FAIL store: sharded per-store cost grew %.2fx from "
                "%zu to %zu entries (expected ~flat)\n",
                growth, n0, n);
    ok = false;
  }
  return ok;
}

bool run_stream_gate(const std::filesystem::path& base, bool quick) {
  // Series geometry: total columnar bytes must exceed the budget.
  const std::size_t width = quick ? 8 : 16;
  cube::bench::Shape shape;
  shape.metrics = 16;
  shape.cnodes = quick ? 1024 : 4096;
  shape.threads = 128;
  shape.fill = 1.0;
  shape.storage = StorageKind::Dense;
  const std::size_t cells = shape.metrics * shape.cnodes * shape.threads;
  const std::size_t total = width * cells * sizeof(double);
  const std::size_t budget = total / 2;

  const std::filesystem::path dir = base / "stream_repo";
  std::filesystem::remove_all(dir);
  std::vector<std::string> ids;
  {
    ExperimentRepository repo(dir);
    for (std::size_t i = 0; i < width; ++i) {
      cube::bench::Shape s = shape;
      s.seed = i + 1;
      Experiment e = cube::bench::make_experiment(s);
      e.set_name("series-" + std::to_string(i));
      ids.push_back(repo.store(e, RepoFormat::Columnar));
    }
  }  // everything built here is freed before the measurement

  ExperimentRepository repo(dir);
  std::vector<Experiment> mapped;
  mapped.reserve(ids.size());
  for (const std::string& id : ids) {
    mapped.push_back(repo.load(id));  // mmap-backed CUBESEV1 view
  }
  std::vector<const Experiment*> ptrs;
  for (const Experiment& e : mapped) ptrs.push_back(&e);
  for (const Experiment* e : ptrs) {
    if (!e->severity().borrowed()) {
      std::printf("FAIL stream: columnar load is not file-backed\n");
      return false;
    }
  }

  if (!reset_peak_rss()) {
    std::printf("skip stream: /proc/self/clear_refs unavailable\n");
    return true;
  }
  const std::size_t rss_before = peak_rss_bytes();
  OperatorOptions streaming;
  streaming.release_operand_pages = true;
  const double t0 = now_ms();
  const Experiment result = mean(ptrs, streaming);
  const double t1 = now_ms();
  const std::size_t rss_after = peak_rss_bytes();
  const std::size_t growth = rss_after - rss_before;

  std::printf("stream n=%zu runs x %zu cells (%.0f MiB total, budget "
              "%.0f MiB)  mean %.0f ms  peak-RSS growth %.0f MiB\n",
              width, cells, total / 1048576.0, budget / 1048576.0, t1 - t0,
              growth / 1048576.0);

  bool ok = true;
  if (growth >= budget) {
    std::printf("FAIL stream: peak RSS growth %.0f MiB >= budget "
                "%.0f MiB\n",
                growth / 1048576.0, budget / 1048576.0);
    ok = false;
  }

  // Bit-identity against the fully-resident reduction: clone every
  // mapped store into an owned one and reduce again.
  std::vector<Experiment> owned;
  owned.reserve(mapped.size());
  for (const Experiment& e : mapped) {
    owned.emplace_back(e.metadata_ptr(), e.severity().clone());
  }
  std::vector<const Experiment*> owned_ptrs;
  for (const Experiment& e : owned) owned_ptrs.push_back(&e);
  const Experiment reference = mean(owned_ptrs, OperatorOptions{});
  if (to_cube_sev(result.severity()) != to_cube_sev(reference.severity())) {
    std::printf("FAIL stream: streamed mean differs from the in-memory "
                "reduction\n");
    ok = false;
  }

  mapped.clear();
  owned.clear();
  std::filesystem::remove_all(dir);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool store_only = false;
  bool stream_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    else if (std::strcmp(argv[i], "--store-only") == 0) store_only = true;
    else if (std::strcmp(argv[i], "--stream-only") == 0) stream_only = true;
    else {
      std::fprintf(stderr,
                   "usage: bench_repo_scale [--quick] "
                   "[--store-only|--stream-only]\n");
      return 2;
    }
  }
  const std::filesystem::path base =
      std::filesystem::temp_directory_path() / "cube_bench_repo_scale";
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);

  bool ok = true;
  if (!stream_only) ok = run_store_gate(base, quick) && ok;
  if (!store_only) ok = run_stream_gate(base, quick) && ok;
  std::filesystem::remove_all(base);
  std::printf("%s\n", ok ? "ALL GATES PASSED" : "GATE FAILURE");
  return ok ? 0 : 1;
}
