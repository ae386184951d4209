// perfbench inputs: every run stored and every query text sent is a pure
// function of the workload seed (README.md, "Seeds and determinism").
//
// The daemon only ever sees what these functions produce: experiments
// handed to ExperimentRepository::store and query texts handed to
// CubeClient::query.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "model/experiment.hpp"

namespace perfbench {

/// SplitMix64, kept here rather than borrowed from the library so a change
/// to the library's generator cannot change the benchmark's inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();                  ///< [0, 1)
  std::size_t below(std::size_t n);  ///< [0, n); n > 0

 private:
  std::uint64_t state_;
};

/// `prefix` followed by `n` in decimal ("ad17"): run ids and entity names.
[[nodiscard]] std::string numbered(std::string_view prefix, std::uint64_t n);

/// Derives an independent sub-seed (per session, per run, per purpose).
[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b);

enum class Workload { HotReplay, ColdSeries, IngestMixed };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload w);

/// One synthetic run.  Runs of one series share every entity name, so
/// their metadata is digest-equal and integrates with identity mappings;
/// series with another call-tree fan-out or other metric names integrate
/// through remaps.
struct RunShape {
  std::string name;  ///< experiment name, which becomes the repository id
  std::string metric_prefix = "m";
  std::size_t metrics = 8;
  std::size_t cnodes = 64;
  std::size_t fanout = 4;  ///< call-tree fan-out
  std::size_t threads = 16;
  double fill = 1.0;  ///< share of non-zero cells
  cube::StorageKind storage = cube::StorageKind::Dense;
  std::uint64_t seed = 1;
  std::map<std::string, std::string> attributes;
};

[[nodiscard]] cube::Experiment make_run(const RunShape& shape);

/// Runs stored when a workload's repository is built.
[[nodiscard]] std::vector<RunShape> setup_runs(Workload w,
                                               std::uint64_t seed);

// --- hot_replay ----------------------------------------------------------

inline constexpr std::size_t kHotRuns = 16;

/// The ~60 distinct hot queries: mean/min/max/diff/merge over seeded
/// pairs of the 16-run dense series.
[[nodiscard]] std::vector<std::string> hot_queries(std::uint64_t seed);

/// Zipf(s = 1) sampler over ranks 0..n-1, with a seeded rank -> query
/// permutation so different seeds favour different queries.
class ZipfPicker {
 public:
  ZipfPicker(std::size_t n, std::uint64_t seed);
  [[nodiscard]] std::size_t pick(Rng& rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<std::size_t> order_;
};

// --- cold_series ---------------------------------------------------------

/// A generated request: the text and a key for its seeded choices (the
/// request-sequence digest folds keys, which stay seed-determined even
/// where the text also depends on timing, as in ingest_mixed).
struct Request {
  std::string text;
  std::uint64_t key = 0;
};

/// A query that (with overwhelming probability) never repeats: a seeded
/// random operand subset under mean/min/max at width 8, 16 or 64, a diff
/// of two disjoint means, or a merge over disjoint metric sets.
[[nodiscard]] Request cold_query(Rng& rng);

// --- ingest_mixed --------------------------------------------------------

inline constexpr std::size_t kIngestBatch = 4;      ///< runs per batch
inline constexpr std::size_t kIngestRetain = 1152;  ///< live runs kept
inline constexpr double kIngestStoresPerSecond = 120.0;
/// Queries address only the newest this-many visible batches — far from
/// the retention cut, so no query names a run about to be removed.
inline constexpr std::size_t kIngestQueryWindow = 16;

/// The k-th ingested run (k < kIngestRetain are stored at setup).
[[nodiscard]] RunShape ingest_run(std::uint64_t seed, std::uint64_t k);

/// An attr()-selected query over two of the newest visible batches.
[[nodiscard]] Request ingest_query(Rng& rng, std::uint64_t newest_batch);

}  // namespace perfbench
