// Randomized equivalence suite for the batched SoA severity sweep
// (docs/KERNELS.md), the only severity engine: every operator — in scalar
// and SIMD form — must be BIT-IDENTICAL to the per-cell reference
// operators (tests/support/reference_ops.hpp) across storage kinds, fill
// rates, batch widths, thread counts, and operand metadata — including
// cnode maps that coalesce sibling call sites onto one result row.
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/batch.hpp"
#include "algebra/operators.hpp"
#include "algebra/simd.hpp"
#include "algebra/statistics.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "io/severity_format.hpp"
#include "model/system_factory.hpp"
#include "obs/metrics.hpp"
#include "support/reference_ops.hpp"
#include "testutil.hpp"

namespace cube {
namespace {

std::uint64_t kernel_count(obs::MetricsRegistry& reg, const char* name) {
  return reg.counter(name).value();
}

struct Shape {
  std::size_t metrics = 5;
  std::size_t cnodes = 37;
  std::size_t threads = 8;
  double fill = 0.3;
  std::string prefix = "m";
  std::uint64_t seed = 1;
  StorageKind storage = StorageKind::Dense;
};

/// Same deterministic generator as test_operators_bulk.cpp: pre-order
/// entity insertion makes equal prefixes integrate via identity mappings
/// while different prefixes share nothing.
Experiment make_random(const Shape& shape) {
  auto md = std::make_unique<Metadata>();

  const Metric* parent = nullptr;
  for (std::size_t i = 0; i < shape.metrics; ++i) {
    if (i % 4 == 0) parent = nullptr;
    parent = &md->add_metric(parent, shape.prefix + std::to_string(i),
                             shape.prefix + std::to_string(i), Unit::Seconds,
                             "");
  }

  const Region& root_region =
      md->add_region(shape.prefix + "_main", "test.c", 1, 2);
  const Cnode* root = &md->add_cnode_for_region(nullptr, root_region);
  std::size_t created = 1;
  const std::function<void(const Cnode*, std::size_t)> grow =
      [&](const Cnode* p, std::size_t depth) {
        if (depth >= 5) return;
        for (int k = 0; k < 3 && created < shape.cnodes; ++k) {
          const Region& r = md->add_region(
              shape.prefix + "_f" + std::to_string(created), "test.c",
              2 * static_cast<long>(created) + 1,
              2 * static_cast<long>(created) + 2);
          ++created;
          grow(&md->add_cnode_for_region(p, r), depth + 1);
        }
      };
  grow(root, 0);

  build_regular_system(*md, "test machine", 1,
                       static_cast<int>(shape.threads));

  Experiment e(std::move(md), shape.storage);
  e.set_name(shape.prefix + std::to_string(shape.seed));
  SplitMix64 rng(shape.seed);
  const Metadata& m = e.metadata();
  for (MetricIndex mi = 0; mi < m.num_metrics(); ++mi) {
    for (CnodeIndex ci = 0; ci < m.num_cnodes(); ++ci) {
      for (ThreadIndex ti = 0; ti < m.num_threads(); ++ti) {
        if (rng.uniform() < shape.fill) {
          e.severity().set(mi, ci, ti, rng.uniform(-5.0, 10.0));
        }
      }
    }
  }
  return e;
}

void expect_bit_identical(const Experiment& got, const Experiment& want,
                          const std::string& label) {
  const Metadata& md = want.metadata();
  ASSERT_EQ(got.metadata().num_metrics(), md.num_metrics()) << label;
  ASSERT_EQ(got.metadata().num_cnodes(), md.num_cnodes()) << label;
  ASSERT_EQ(got.metadata().num_threads(), md.num_threads()) << label;
  for (MetricIndex m = 0; m < md.num_metrics(); ++m) {
    for (CnodeIndex c = 0; c < md.num_cnodes(); ++c) {
      for (ThreadIndex t = 0; t < md.num_threads(); ++t) {
        const Severity g = got.severity().get(m, c, t);
        const Severity w = want.severity().get(m, c, t);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(g),
                  std::bit_cast<std::uint64_t>(w))
            << label << " at (" << m << "," << c << "," << t << "): got " << g
            << " want " << w;
      }
    }
  }
  EXPECT_EQ(got.severity().nonzero_count(), want.severity().nonzero_count())
      << label;
}

enum class OpKind { Mean, Min, Max, Stddev, Variation, Diff, Merge };

Experiment apply(OpKind op, const std::vector<const Experiment*>& operands,
                 const OperatorOptions& options) {
  const std::span<const Experiment* const> span(operands);
  switch (op) {
    case OpKind::Mean: return mean(span, options);
    case OpKind::Min: return minimum(span, options);
    case OpKind::Max: return maximum(span, options);
    case OpKind::Stddev: return stddev(span, options);
    case OpKind::Variation: return variation(span, options);
    case OpKind::Diff: return difference(*operands[0], *operands[1], options);
    case OpKind::Merge: return merge(*operands[0], *operands[1], options);
  }
  throw std::logic_error("unreachable");
}

/// The same operator through the per-cell oracle.
Experiment apply_reference(OpKind op,
                           const std::vector<const Experiment*>& operands,
                           const OperatorOptions& options) {
  const std::span<const Experiment* const> span(operands);
  switch (op) {
    case OpKind::Mean: return reference::mean(span, options);
    case OpKind::Min: return reference::minimum(span, options);
    case OpKind::Max: return reference::maximum(span, options);
    case OpKind::Stddev: return reference::stddev(span, options);
    case OpKind::Variation: return reference::variation(span, options);
    case OpKind::Diff:
      return reference::difference(*operands[0], *operands[1], options);
    case OpKind::Merge:
      return reference::merge(*operands[0], *operands[1], options);
  }
  throw std::logic_error("unreachable");
}

const char* op_label(OpKind op) {
  switch (op) {
    case OpKind::Mean: return "mean";
    case OpKind::Min: return "min";
    case OpKind::Max: return "max";
    case OpKind::Stddev: return "stddev";
    case OpKind::Variation: return "variation";
    case OpKind::Diff: return "diff";
    case OpKind::Merge: return "merge";
  }
  return "?";
}

/// Coalescing: sibling call sites of one callee (tests/testutil.hpp),
/// alternating with the line-shifted variant, so every operand's cnode map
/// folds up to three source rows onto one result row.
enum class MetaKind { Identical, Overlapping, Disjoint, Coalescing };

std::vector<Experiment> make_operands(MetaKind meta, std::size_t count,
                                      double fill, StorageKind storage) {
  std::vector<Experiment> operands;
  for (std::size_t i = 0; i < count; ++i) {
    if (meta == MetaKind::Coalescing) {
      operands.push_back(testing::make_coalescing(
          i + 1, fill, storage, static_cast<long>(i % 2) * 100));
      continue;
    }
    Shape s;
    s.fill = fill;
    s.storage = storage;
    s.seed = i + 1;
    switch (meta) {
      case MetaKind::Identical:
        break;
      case MetaKind::Overlapping:
        // Same prefix, cyclically shrinking entity sets (bounded so wide
        // batches stay valid): operand 0 is the identity, later operands
        // map onto a prefix of the integrated space.
        s.metrics -= i % 2;
        s.cnodes -= 5 * (i % 4);
        break;
      case MetaKind::Disjoint:
        s.prefix = "p" + std::to_string(i) + "_";
        s.cnodes = 20 + 3 * (i % 6);
        break;
      case MetaKind::Coalescing:
        break;
    }
    operands.push_back(make_random(s));
  }
  return operands;
}

class BatchEquivalence : public ::testing::TestWithParam<MetaKind> {};

// The core equivalence matrix: reference vs batch-scalar vs batch-auto for
// every operator, at batch widths up to 16 (the binary operators at 2) and
// 1/4/8 executor threads.
TEST_P(BatchEquivalence, AllPathsBitIdentical) {
  const MetaKind meta = GetParam();
  ThreadPool pool4(4);
  ThreadPool pool8(8);
  const auto pool_for = [](ThreadPool& pool) {
    return [&pool](std::size_t n,
                   const std::function<void(std::size_t)>& body) {
      pool.parallel_for(n, body);
    };
  };

  for (const OpKind op :
       {OpKind::Mean, OpKind::Min, OpKind::Max, OpKind::Stddev,
        OpKind::Variation, OpKind::Diff, OpKind::Merge}) {
    const bool binary = op == OpKind::Diff || op == OpKind::Merge;
    for (const std::size_t width :
         {std::size_t{2}, std::size_t{4}, std::size_t{8}, std::size_t{16}}) {
      if (binary && width != 2) continue;
      for (const double fill : {1.0, 0.1, 0.01}) {
        // Wide batches only need the boundary fills; the middle fill adds
        // nothing new once the narrow widths covered it.
        if (width > 4 && fill == 0.1) continue;
        for (const StorageKind operand_storage :
             {StorageKind::Dense, StorageKind::Sparse}) {
          const std::vector<Experiment> operands =
              make_operands(meta, width, fill, operand_storage);
          std::vector<const Experiment*> ptrs;
          for (const auto& e : operands) ptrs.push_back(&e);

          for (const StorageKind result_storage :
               {StorageKind::Dense, StorageKind::Sparse}) {
            OperatorOptions reference;
            reference.storage = result_storage;
            const Experiment want = apply_reference(op, ptrs, reference);

            const std::string base =
                std::string(op_label(op)) + " n=" + std::to_string(width) +
                " fill=" + std::to_string(fill) + " opstore=" +
                (operand_storage == StorageKind::Dense ? "dense" : "sparse") +
                " outstore=" +
                (result_storage == StorageKind::Dense ? "dense" : "sparse");

            for (const std::size_t threads :
                 {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
              const std::string label =
                  base + " threads=" + std::to_string(threads);
              const auto run = [&](simd::Policy policy) {
                OperatorOptions o;
                o.storage = result_storage;
                o.simd_policy = policy;
                if (threads == 4) o.parallel_for = pool_for(pool4);
                if (threads == 8) o.parallel_for = pool_for(pool8);
                return apply(op, ptrs, o);
              };
              expect_bit_identical(run(simd::Policy::ForceScalar), want,
                                   label + " batch-scalar");
              expect_bit_identical(run(simd::Policy::Auto), want,
                                   label + " batch-simd");
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetadataKinds, BatchEquivalence,
                         ::testing::Values(MetaKind::Identical,
                                           MetaKind::Overlapping,
                                           MetaKind::Disjoint,
                                           MetaKind::Coalescing),
                         [](const auto& info) {
                           switch (info.param) {
                             case MetaKind::Identical: return "Identical";
                             case MetaKind::Overlapping: return "Overlapping";
                             case MetaKind::Disjoint: return "Disjoint";
                             case MetaKind::Coalescing: return "Coalescing";
                           }
                           return "Unknown";
                         });

// The binary operators route through the same batched combiner.
TEST(BatchKernels, BinaryOperatorsMatchReference) {
  for (const OpKind op : {OpKind::Diff, OpKind::Merge}) {
    for (const MetaKind meta :
         {MetaKind::Identical, MetaKind::Overlapping, MetaKind::Disjoint,
          MetaKind::Coalescing}) {
      const auto operands =
          make_operands(meta, 2, 0.3, StorageKind::Dense);
      std::vector<const Experiment*> ptrs = {&operands[0], &operands[1]};

      const Experiment want = apply_reference(op, ptrs, {});

      OperatorOptions batch;
      batch.simd_policy = simd::Policy::ForceScalar;
      expect_bit_identical(apply(op, ptrs, batch), want,
                           std::string(op_label(op)) + " batch-scalar");
      expect_bit_identical(apply(op, ptrs, {}), want,
                           std::string(op_label(op)) + " batch-simd");
    }
  }
}

// An n-ary reduction through the batch path is ONE application over ONE
// sweep of the cell space: the counters must show a single application
// whose width is the operand count, with SoA tiles staged, and no chunk
// multiplication by N.
TEST(BatchKernels, SingleSweepCountersForWideSeries) {
  const std::size_t width = 8;
  const auto operands =
      make_operands(MetaKind::Identical, width, 0.5, StorageKind::Dense);
  std::vector<const Experiment*> ptrs;
  for (const auto& e : operands) ptrs.push_back(&e);

  OperatorOptions options;
  obs::MetricsRegistry stats;
  options.metrics = &stats;
  (void)mean(ptrs, options);

  EXPECT_EQ(kernel_count(stats, kernel_counters::kApplications), 1u);
  EXPECT_EQ(kernel_count(stats, kernel_counters::kBatchWidth), width);
  EXPECT_GT(kernel_count(stats, kernel_counters::kBatchTiles), 0u);
  const std::uint64_t cells =
      operands[0].metadata().num_metrics() *
      operands[0].metadata().num_cnodes() *
      operands[0].metadata().num_threads();
  // Identity x dense operands are borrowed per tile: N operands x cells.
  EXPECT_EQ(kernel_count(stats, kernel_counters::kIdentityDenseCells),
            width * cells);
  EXPECT_LE(kernel_count(stats, kernel_counters::kChunks),
            batch::kMaxCellChunks);
}

// Sibling call sites merged by integration make every operand's cnode map
// coalesce up to three source rows onto one result row.  The tile engine
// runs such applications like any other — one sweep whose batch width
// counts operands — and visits each source row once per tile whether the
// coalesced rows are split into extra tile rows (sums) or accumulated in
// the operand's row (folds), so the remap counter is the same for both.
TEST(BatchKernels, CoalescingMappingsRunOnTheTileEngine) {
  for (const StorageKind storage : {StorageKind::Dense, StorageKind::Sparse}) {
    const auto operands =
        make_operands(MetaKind::Coalescing, 3, 0.3, storage);
    std::vector<const Experiment*> ptrs;
    for (const auto& e : operands) ptrs.push_back(&e);
    const IntegrationResult integration = integrate_metadata(ptrs);
    ASSERT_EQ(integration.metadata->num_cnodes(), 7u);
    for (const OperandMapping& mp : integration.mappings) {
      EXPECT_FALSE(mp.cnode_identity);
    }

    std::uint64_t remap_cells[2] = {0, 0};
    for (const OpKind op : {OpKind::Mean, OpKind::Max}) {
      OperatorOptions options;
      obs::MetricsRegistry stats;
      options.metrics = &stats;
      const Experiment got = apply(op, ptrs, options);
      const std::string label = std::string(op_label(op)) +
                                (storage == StorageKind::Dense ? " dense"
                                                               : " sparse");
      expect_bit_identical(got, apply_reference(op, ptrs, {}), label);
      EXPECT_EQ(kernel_count(stats, kernel_counters::kApplications), 1u);
      EXPECT_EQ(kernel_count(stats, kernel_counters::kBatchWidth), 3u);
      EXPECT_GT(kernel_count(stats, kernel_counters::kBatchTiles), 0u);
      remap_cells[op == OpKind::Max] =
          kernel_count(stats, kernel_counters::kRemapDenseCells) +
          kernel_count(stats, kernel_counters::kRemapSparseNnz);
    }
    EXPECT_GT(remap_cells[0], 0u);
    EXPECT_EQ(remap_cells[0], remap_cells[1]);
  }
}

// A wide all-sparse identity-mapped series runs on the tile engine too,
// applying exactly the stored non-zeros, bit-identical to the reference.
TEST(BatchKernels, WideSparseSeriesRunsOnTheTileEngine) {
  const auto operands =
      make_operands(MetaKind::Identical, 16, 0.2, StorageKind::Sparse);
  std::vector<const Experiment*> ptrs;
  std::uint64_t nnz = 0;
  for (const auto& e : operands) {
    ptrs.push_back(&e);
    nnz += e.severity().nonzero_count();
  }

  OperatorOptions options;
  obs::MetricsRegistry stats;
  options.metrics = &stats;
  const Experiment got = mean(ptrs, options);

  EXPECT_GT(kernel_count(stats, kernel_counters::kBatchTiles), 0u);
  EXPECT_EQ(kernel_count(stats, kernel_counters::kBatchWidth), 16u);
  EXPECT_EQ(kernel_count(stats, kernel_counters::kIdentitySparseNnz), nnz);
  expect_bit_identical(
      got, reference::mean(std::span<const Experiment* const>(ptrs)),
      "wide sparse series");
}

// Narrow or dense series, and the binary operators over identity-mapped
// sparse or remapped dense operands, all sweep in SoA tiles.
TEST(BatchKernels, NarrowOrDenseSeriesStaysOnBatchedPath) {
  {
    const auto operands =
        make_operands(MetaKind::Identical, 4, 0.2, StorageKind::Sparse);
    std::vector<const Experiment*> ptrs;
    for (const auto& e : operands) ptrs.push_back(&e);
    OperatorOptions options;
    obs::MetricsRegistry stats;
    options.metrics = &stats;
    (void)mean(ptrs, options);
    EXPECT_GT(kernel_count(stats, kernel_counters::kBatchTiles), 0u);
  }
  {
    const auto operands =
        make_operands(MetaKind::Identical, 16, 0.5, StorageKind::Dense);
    std::vector<const Experiment*> ptrs;
    for (const auto& e : operands) ptrs.push_back(&e);
    OperatorOptions options;
    obs::MetricsRegistry stats;
    options.metrics = &stats;
    (void)mean(ptrs, options);
    EXPECT_GT(kernel_count(stats, kernel_counters::kBatchTiles), 0u);
  }
  for (const auto& [meta, storage] :
       {std::pair{MetaKind::Identical, StorageKind::Sparse},
        std::pair{MetaKind::Overlapping, StorageKind::Dense}}) {
    const auto operands = make_operands(meta, 2, 0.2, storage);
    OperatorOptions options;
    obs::MetricsRegistry diff_stats;
    options.metrics = &diff_stats;
    (void)difference(operands[0], operands[1], options);
    EXPECT_GT(kernel_count(diff_stats, kernel_counters::kBatchTiles), 0u);

    obs::MetricsRegistry merge_stats;
    options.metrics = &merge_stats;
    (void)merge(operands[0], operands[1], options);
    EXPECT_GT(kernel_count(merge_stats, kernel_counters::kBatchTiles), 0u);
  }
}

// Streaming release (OperatorOptions::release_operand_pages): reducing a
// series of mmap-backed operands while dropping consumed pages is a pure
// memory policy — the result stays bit-identical to the owned-store run.
TEST(BatchKernels, ReleasingOperandPagesNeverChangesResults) {
  const std::size_t width = 6;
  const auto owned =
      make_operands(MetaKind::Identical, width, 0.5, StorageKind::Dense);
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "cube_release_pages";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  std::vector<Experiment> mapped;
  for (std::size_t i = 0; i < width; ++i) {
    const std::filesystem::path path =
        dir / ("op" + std::to_string(i) + ".sev");
    {
      std::ofstream out(path, std::ios::binary);
      const std::string blob = to_cube_sev(owned[i].severity());
      out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    }
    mapped.emplace_back(owned[i].metadata_ptr(), map_cube_sev_file(path));
    ASSERT_TRUE(mapped.back().severity().borrowed());
  }
  std::vector<const Experiment*> owned_ptrs, mapped_ptrs;
  for (std::size_t i = 0; i < width; ++i) {
    owned_ptrs.push_back(&owned[i]);
    mapped_ptrs.push_back(&mapped[i]);
  }

  OperatorOptions streaming;
  streaming.release_operand_pages = true;
  ThreadPool pool(4);
  streaming.parallel_for = [&pool](std::size_t n, const auto& body) {
    pool.parallel_for(n, body);
  };
  const OperatorOptions plain;
  expect_bit_identical(mean(mapped_ptrs, streaming), mean(owned_ptrs, plain),
                       "release pages mean");
  expect_bit_identical(maximum(mapped_ptrs, streaming),
                       maximum(owned_ptrs, plain), "release pages max");
  expect_bit_identical(stddev(mapped_ptrs, streaming),
                       stddev(owned_ptrs, plain), "release pages stddev");
  std::filesystem::remove_all(dir);
}

// The SIMD primitives themselves: whatever backend the dispatcher picks
// must agree bit-for-bit with the scalar oracle, including the signed
// zeros and factor==1.0 short-circuit the contract calls out.
TEST(BatchKernels, SimdPrimitivesMatchScalarBitForBit) {
  SplitMix64 rng(7);
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                              std::size_t{17}, std::size_t{64},
                              std::size_t{1021}}) {
    for (const std::size_t rows : {std::size_t{1}, std::size_t{2},
                                   std::size_t{7}, std::size_t{16}}) {
      std::vector<std::vector<Severity>> data(rows);
      std::vector<simd::TileRow> tile(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        data[r].resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          const double roll = rng.uniform();
          data[r][i] = roll < 0.1    ? 0.0
                       : roll < 0.15 ? -0.0
                                     : rng.uniform(-5.0, 10.0);
        }
        tile[r] = {data[r].data(),
                   r % 3 == 0 ? 1.0 : rng.uniform(-2.0, 2.0)};
      }

      std::vector<Severity> want(n), got(n);
      simd::reduce_sum_scalar(want.data(), tile.data(), rows, n);
      simd::reduce_sum(got.data(), tile.data(), rows, n,
                       simd::Policy::Auto);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(want[i]))
            << "sum n=" << n << " rows=" << rows << " i=" << i;
      }

      for (const bool take_min : {true, false}) {
        simd::reduce_extremum_scalar(want.data(), tile.data(), rows, n,
                                     take_min);
        simd::reduce_extremum(got.data(), tile.data(), rows, n, take_min,
                              simd::Policy::Auto);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                    std::bit_cast<std::uint64_t>(want[i]))
              << (take_min ? "min" : "max") << " n=" << n << " rows=" << rows
              << " i=" << i;
        }
      }
    }
  }
}

// Integration hoisting: the hoisted overloads over one shared
// IntegrationResult must equal the self-integrating forms, and
// summarize_series (which integrates once for all four summaries) must
// match the four independent calls bit-for-bit.
TEST(BatchKernels, HoistedIntegrationMatchesSelfIntegrating) {
  for (const MetaKind meta : {MetaKind::Identical, MetaKind::Overlapping}) {
    const auto operands =
        make_operands(meta, 5, 0.4, StorageKind::Dense);
    std::vector<const Experiment*> ptrs;
    for (const auto& e : operands) ptrs.push_back(&e);

    const IntegrationResult integration = integrate_metadata(ptrs);
    const OperatorOptions options;
    expect_bit_identical(mean(ptrs, integration, options),
                         mean(std::span<const Experiment* const>(ptrs),
                              options),
                         "hoisted mean");
    expect_bit_identical(minimum(ptrs, integration, options),
                         minimum(std::span<const Experiment* const>(ptrs),
                                 options),
                         "hoisted min");
    expect_bit_identical(maximum(ptrs, integration, options),
                         maximum(std::span<const Experiment* const>(ptrs),
                                 options),
                         "hoisted max");
    expect_bit_identical(stddev(ptrs, integration, options),
                         stddev(std::span<const Experiment* const>(ptrs),
                                options),
                         "hoisted stddev");

    const SeriesSummary summary = summarize_series(ptrs, options);
    expect_bit_identical(
        summary.mean,
        mean(std::span<const Experiment* const>(ptrs), options),
        "summary mean");
    expect_bit_identical(
        summary.minimum,
        minimum(std::span<const Experiment* const>(ptrs), options),
        "summary min");
    expect_bit_identical(
        summary.maximum,
        maximum(std::span<const Experiment* const>(ptrs), options),
        "summary max");
    expect_bit_identical(
        summary.stddev,
        stddev(std::span<const Experiment* const>(ptrs), options),
        "summary stddev");
  }
}

// A hoisted call with an IntegrationResult of the wrong operand count is
// a contract violation, not silent misbehavior.
TEST(BatchKernels, HoistedIntegrationArityMismatchThrows) {
  const auto operands =
      make_operands(MetaKind::Identical, 3, 0.4, StorageKind::Dense);
  std::vector<const Experiment*> ptrs;
  for (const auto& e : operands) ptrs.push_back(&e);
  const IntegrationResult integration = integrate_metadata(ptrs);

  std::vector<const Experiment*> fewer = {ptrs[0], ptrs[1]};
  EXPECT_THROW((void)mean(fewer, integration, {}), OperationError);
}

}  // namespace
}  // namespace cube
