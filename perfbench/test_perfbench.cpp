// perfbench's own tests: the percentile helper, seeded inputs, and the
// exact counts a seed must reproduce (README.md, "Seeds and determinism").
// Run through ctest in the perfbench build directory.
#include <cstdio>
#include <string>
#include <vector>

#include "driver.hpp"
#include "gen.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

void test_percentile() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const perfbench::Quantile p50 = perfbench::percentile(v, 0.5);
  CHECK(p50.value == 50.0);
  CHECK(p50.samples == 100);
  CHECK(p50.beyond == 50);
  const perfbench::Quantile p99 = perfbench::percentile(v, 0.99);
  CHECK(p99.value == 99.0);
  CHECK(p99.beyond == 1);
  CHECK(!p99.supported());
  const std::string text = perfbench::describe("p99", p99, "ms");
  CHECK(text.find("n=100") != std::string::npos);
  CHECK(text.find("under-supported") != std::string::npos);
  CHECK(perfbench::percentile({}, 0.5).samples == 0);
  CHECK(perfbench::percentile({7.0}, 0.99).value == 7.0);
}

void test_inputs_follow_the_seed() {
  CHECK(perfbench::hot_queries(3) == perfbench::hot_queries(3));
  CHECK(perfbench::hot_queries(3) != perfbench::hot_queries(4));
  CHECK(perfbench::hot_queries(3).size() == 60);
  perfbench::Rng a(9), b(9);
  for (int i = 0; i < 50; ++i) {
    const perfbench::Request x = perfbench::cold_query(a);
    const perfbench::Request y = perfbench::cold_query(b);
    CHECK(x.text == y.text);
    CHECK(x.key == y.key);
  }
  const auto runs = perfbench::setup_runs(perfbench::Workload::HotReplay, 5);
  CHECK(runs.size() == perfbench::kHotRuns);
  // Digest-equal metadata within a series, different values per run.
  const cube::Experiment r0 = perfbench::make_run(runs[0]);
  const cube::Experiment r1 = perfbench::make_run(runs[1]);
  CHECK(r0.metadata().digest() == r1.metadata().digest());
  CHECK(r0.severity().get(0, 0, 0) != r1.severity().get(0, 0, 0));
}

void test_counts_repeat(perfbench::Workload w, std::size_t queries,
                        std::size_t stores) {
  perfbench::Options opt;
  opt.workload = w;
  opt.seed = 42;
  opt.setups = 1;
  opt.queries_per_session = queries;
  opt.ingest_stores = stores;
  opt.work_dir = std::string("perfbench_test_work_") +
                 perfbench::workload_name(w);
  const perfbench::Report a = perfbench::run_workload(opt);
  const perfbench::Report b = perfbench::run_workload(opt);
  for (const std::string& line : a.lines) std::printf("  %s\n", line.c_str());
  CHECK(a.correct);
  CHECK(b.correct);
  CHECK(a.failed == 0);
  CHECK(a.counts.requests > 0);
  CHECK(a.counts.request_digest == b.counts.request_digest);
  CHECK(a.counts.requests == b.counts.requests);
  if (w != perfbench::Workload::IngestMixed) {
    // ingest_mixed queries address whatever batch is newest when sent,
    // so only its writer-side counts are fixed by the seed.
    CHECK(a.counts.wire_bytes == b.counts.wire_bytes);
    CHECK(a.counts.operands_loaded == b.counts.operands_loaded);
    CHECK(a.counts.kernel_cells == b.counts.kernel_cells);
  }
  CHECK(a.counts.stores == b.counts.stores);
  CHECK(a.counts.seals == b.counts.seals);
  CHECK(a.counts.compactions == b.counts.compactions);
  if (w == perfbench::Workload::IngestMixed) {
    CHECK(a.counts.stores == stores);
    // 1152 setup records, then two records per store: the first seal
    // comes at store 448 and the first compaction at store 577.
    CHECK(a.counts.seals >= 1);
    CHECK(a.counts.compactions >= 1);
  }
  if (w == perfbench::Workload::ColdSeries) {
    CHECK(a.counts.kernel_cells > 0);
    CHECK(a.counts.operands_loaded > 0);
  }
}

}  // namespace

int main() {
  test_percentile();
  test_inputs_follow_the_seed();
  test_counts_repeat(perfbench::Workload::HotReplay, 40, 0);
  test_counts_repeat(perfbench::Workload::ColdSeries, 6, 0);
  test_counts_repeat(perfbench::Workload::IngestMixed, 10, 600);
  if (failures) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench tests passed\n");
  return 0;
}
