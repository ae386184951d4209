// Crash-injection tests for the sharded repository layout: torn segment
// appends, a crash between the blob writes and the index append, and
// compactions interrupted on either side of their MANIFEST commit.  Each
// test constructs the exact on-disk state such a crash leaves behind and
// asserts that open() reads losslessly past it and migrate() sweeps the
// debris (docs/STORAGE.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "io/index_segments.hpp"
#include "io/repository.hpp"
#include "io/severity_format.hpp"
#include "testutil.hpp"

namespace cube {
namespace {

using cube::testing::make_small;

class RepoShardsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("cube_shards_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path active_segment() const {
    ExperimentRepository repo(dir_);
    const SegmentedIndex* index = repo.segmented_index();
    EXPECT_NE(index, nullptr);
    return index->index_dir() / index->segment_names().back();
  }

  static std::string slurp(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  static void spill(const std::filesystem::path& path,
                    const std::string& bytes) {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::filesystem::path dir_;
};

TEST_F(RepoShardsTest, FreshRepositoryUsesShardedLayout) {
  ExperimentRepository repo(dir_);
  EXPECT_EQ(repo.layout(), RepoLayout::Sharded);
  EXPECT_TRUE(std::filesystem::exists(dir_ / "index" / "MANIFEST"));
  EXPECT_FALSE(std::filesystem::exists(dir_ / "index.xml"));
}

TEST_F(RepoShardsTest, TornGarbageTailIsIgnoredOnOpen) {
  {
    ExperimentRepository repo(dir_);
    repo.store(make_small(StorageKind::Dense, "a"));
    repo.store(make_small(StorageKind::Dense, "b"));
    repo.store(make_small(StorageKind::Dense, "c"));
  }
  // A crash mid-append leaves a partial frame at the tail.
  {
    std::ofstream out(active_segment(),
                      std::ios::app | std::ios::binary);
    out << "R 57 0123456789abcdef\n<entry id=\"torn";
  }
  ExperimentRepository reopened(dir_);
  ASSERT_EQ(reopened.entries().size(), 3u);
  EXPECT_NO_THROW((void)reopened.load("a"));
  EXPECT_NO_THROW((void)reopened.load("c"));
}

TEST_F(RepoShardsTest, NextAppendTruncatesTornTail) {
  {
    ExperimentRepository repo(dir_);
    repo.store(make_small(StorageKind::Dense, "a"));
  }
  const std::filesystem::path seg = active_segment();
  {
    std::ofstream out(seg, std::ios::app | std::ios::binary);
    out << "R 9999 deadbeefdeadbeef\ngarbage";
  }
  {
    // The reopened writer parses up to the tear, truncates it, and
    // appends the new record where the tear began.
    ExperimentRepository repo(dir_);
    repo.store(make_small(StorageKind::Dense, "b"));
  }
  EXPECT_EQ(slurp(seg).find("deadbeef"), std::string::npos);
  ExperimentRepository reopened(dir_);
  ASSERT_EQ(reopened.entries().size(), 2u);
  EXPECT_NO_THROW((void)reopened.load("b"));
}

TEST_F(RepoShardsTest, CrashBeforeIndexAppendLeavesOrphanBlobsOnly) {
  ExperimentRepository setup(dir_);
  setup.store(make_small(StorageKind::Dense, "kept"));
  const std::string before = slurp(active_segment());
  setup.store(make_small(StorageKind::Sparse, "lost"), RepoFormat::Columnar);
  // store() writes meta blob -> sev blob -> experiment file -> index
  // record, in that order.  Rewinding the segment to its pre-store bytes
  // reproduces a crash after the file writes but before the append.
  spill(active_segment(), before);

  ExperimentRepository crashed(dir_);
  ASSERT_EQ(crashed.entries().size(), 1u);
  EXPECT_EQ(crashed.entries()[0].id, "kept");
  // The unindexed blobs are orphans, not corruption...
  EXPECT_FALSE(crashed.orphan_blobs().empty());
  EXPECT_GT(crashed.remove_orphan_blobs(), 0u);
  EXPECT_TRUE(crashed.orphan_blobs().empty());
  // ...and the store can simply be retried.
  crashed.store(make_small(StorageKind::Sparse, "lost"),
                RepoFormat::Columnar);
  EXPECT_NO_THROW((void)crashed.load("lost"));
  EXPECT_NO_THROW((void)ExperimentRepository(dir_).load("kept"));
}

TEST_F(RepoShardsTest, CompactionCrashBeforeCommitLeavesOrphanSegment) {
  {
    ExperimentRepository repo(dir_);
    repo.store(make_small(StorageKind::Dense, "a"));
    repo.store(make_small(StorageKind::Dense, "b"));
  }
  // A compaction that died before its MANIFEST rename leaves its output
  // segment on disk, unlisted.  Use a number past the active segment.
  spill(dir_ / "index" / "seg-000099.log", "R 3 0000000000000000\nxxx\n");

  ExperimentRepository repo(dir_);
  ASSERT_EQ(repo.entries().size(), 2u);  // the orphan is never read
  const SegmentedIndex::StraySegments strays =
      repo.segmented_index()->stray_segments();
  ASSERT_EQ(strays.orphans.size(), 1u);
  EXPECT_NE(strays.orphans[0].find("seg-000099.log"), std::string::npos);
  EXPECT_TRUE(strays.stale.empty());

  EXPECT_GT(repo.migrate(), 0u);  // recovery: sweep the debris
  EXPECT_FALSE(std::filesystem::exists(dir_ / "index" / "seg-000099.log"));
  EXPECT_TRUE(repo.segmented_index()->stray_segments().orphans.empty());
  EXPECT_EQ(repo.entries().size(), 2u);
}

TEST_F(RepoShardsTest, CompactionCrashAfterCommitLeavesStaleSegment) {
  {
    ExperimentRepository repo(dir_);
    for (int i = 0; i < 6; ++i) {
      repo.store(make_small(StorageKind::Dense, "e" + std::to_string(i)));
    }
    repo.compact();  // manifest now lists later segment numbers
  }
  // Re-materialize the superseded first segment the (simulated) crashed
  // compaction failed to delete, plus a temp-file leftover.
  spill(dir_ / "index" / "seg-000001.log", "stale bytes");
  spill(dir_ / "index" / "MANIFEST.tmp", "half-written manifest");

  ExperimentRepository repo(dir_);
  ASSERT_EQ(repo.entries().size(), 6u);
  const SegmentedIndex::StraySegments strays =
      repo.segmented_index()->stray_segments();
  EXPECT_TRUE(strays.orphans.empty());
  ASSERT_EQ(strays.stale.size(), 2u);

  EXPECT_EQ(repo.remove_stray_segments(), 2u);
  EXPECT_FALSE(std::filesystem::exists(dir_ / "index" / "seg-000001.log"));
  EXPECT_FALSE(std::filesystem::exists(dir_ / "index" / "MANIFEST.tmp"));
  ASSERT_EQ(ExperimentRepository(dir_).entries().size(), 6u);
}

TEST_F(RepoShardsTest, CompactFoldsTombstonesLosslessly) {
  ExperimentRepository repo(dir_);
  for (int i = 0; i < 8; ++i) {
    repo.store(make_small(StorageKind::Dense, "e" + std::to_string(i)));
  }
  for (int i = 0; i < 4; ++i) repo.remove("e" + std::to_string(i));
  ASSERT_EQ(repo.entries().size(), 4u);
  EXPECT_GT(repo.compact(), 0u);

  ExperimentRepository reopened(dir_);
  ASSERT_EQ(reopened.entries().size(), 4u);
  for (int i = 4; i < 8; ++i) {
    EXPECT_NO_THROW((void)reopened.load("e" + std::to_string(i)));
  }
  EXPECT_THROW((void)reopened.load("e0"), Error);
}

TEST_F(RepoShardsTest, RefreshPicksUpExternalAppends) {
  ExperimentRepository writer(dir_);
  ExperimentRepository reader(dir_);
  const std::uint64_t gen = reader.generation();
  EXPECT_FALSE(reader.refresh());

  writer.store(make_small(StorageKind::Dense, "late"));
  EXPECT_TRUE(reader.refresh());  // unchanged MANIFEST: tail parse only
  EXPECT_GT(reader.generation(), gen);
  ASSERT_EQ(reader.entries().size(), 1u);
  EXPECT_NO_THROW((void)reader.load("late"));
  EXPECT_FALSE(reader.refresh());
}

TEST_F(RepoShardsTest, CompactMergesExternalAppends) {
  ExperimentRepository writer(dir_);
  writer.store(make_small(StorageKind::Dense, "base"));
  ExperimentRepository reader(dir_);
  ASSERT_EQ(reader.entries().size(), 1u);

  // Appended by another process after the reader's last refresh: folding
  // the index from the reader's stale in-memory list must replay it, not
  // destroy it (the rewritten MANIFEST would otherwise make the loss
  // permanent — the next refresh() sees its digest as unchanged).
  writer.store(make_small(StorageKind::Dense, "late"));
  const std::uint64_t gen = reader.generation();
  reader.compact();
  EXPECT_GT(reader.generation(), gen);
  ASSERT_EQ(reader.entries().size(), 2u);
  EXPECT_NO_THROW((void)reader.load("late"));
  EXPECT_FALSE(reader.refresh());

  ExperimentRepository reopened(dir_);
  ASSERT_EQ(reopened.entries().size(), 2u);
  EXPECT_NO_THROW((void)reopened.load("late"));
  // The writer sees the compacted segment list on its next refresh.
  EXPECT_TRUE(writer.refresh());
  ASSERT_EQ(writer.entries().size(), 2u);
}

TEST_F(RepoShardsTest, CompactReloadsAfterExternalCompaction) {
  ExperimentRepository writer(dir_);
  ExperimentRepository reader(dir_);  // stale: sees an empty repository
  for (int i = 0; i < 6; ++i) {
    writer.store(make_small(StorageKind::Dense, "e" + std::to_string(i)));
  }
  writer.remove("e0");
  writer.compact();  // MANIFEST changed under the stale reader
  reader.compact();  // must reload before rewriting, or 5 entries vanish
  ASSERT_EQ(reader.entries().size(), 5u);
  EXPECT_NO_THROW((void)reader.load("e5"));
  ASSERT_EQ(ExperimentRepository(dir_).entries().size(), 5u);
}

TEST_F(RepoShardsTest, RefreshSurvivesExternalCompaction) {
  ExperimentRepository writer(dir_);
  ExperimentRepository reader(dir_);
  for (int i = 0; i < 6; ++i) {
    writer.store(make_small(StorageKind::Dense, "e" + std::to_string(i)));
  }
  writer.remove("e0");
  writer.compact();  // MANIFEST changed: reader must fully reload
  EXPECT_TRUE(reader.refresh());
  ASSERT_EQ(reader.entries().size(), 5u);
  EXPECT_NO_THROW((void)reader.load("e5"));
}

TEST_F(RepoShardsTest, ColumnarEntriesRoundTripThroughSevBlobs) {
  Experiment dense = make_small(StorageKind::Dense, "dense");
  Experiment sparse = make_small(StorageKind::Sparse, "sparse");
  sparse.severity().set(1, 2, 3, 0.0);  // keep a hole in the key column
  {
    ExperimentRepository repo(dir_);
    repo.store(dense, RepoFormat::Columnar);
    repo.store(sparse, RepoFormat::Columnar);
    EXPECT_NE(repo.entries()[0].file.find(".cubc"), std::string::npos);
    EXPECT_FALSE(repo.entries()[0].sev.empty());
  }
  ExperimentRepository reopened(dir_);
  const Experiment dense_back = reopened.load("dense");
  const Experiment sparse_back = reopened.load("sparse");
  const Metadata& md = dense.metadata();
  for (MetricIndex m = 0; m < md.num_metrics(); ++m) {
    for (CnodeIndex c = 0; c < md.num_cnodes(); ++c) {
      for (ThreadIndex t = 0; t < md.num_threads(); ++t) {
        EXPECT_EQ(dense_back.severity().get(m, c, t),
                  dense.severity().get(m, c, t));
        EXPECT_EQ(sparse_back.severity().get(m, c, t),
                  sparse.severity().get(m, c, t));
      }
    }
  }
  // The blobs live under sev/<ab>/ and pass the full integrity check.
  std::size_t checked = 0;
  for (const auto& file :
       std::filesystem::recursive_directory_iterator(dir_ / "sev")) {
    if (!file.is_regular_file()) continue;
    EXPECT_NO_THROW(check_cube_sev_file(file.path()));
    EXPECT_EQ(file.path().parent_path().filename().string(),
              file.path().filename().string().substr(0, 2));
    ++checked;
  }
  EXPECT_GE(checked, 1u);
}

TEST_F(RepoShardsTest, MappedSeverityMatchesOwnedAfterRelease) {
  const Experiment e = make_small(StorageKind::Dense, "mapped");
  const std::string blob = to_cube_sev(e.severity());
  const std::filesystem::path path = dir_ / "blob.sev";
  std::filesystem::create_directories(dir_);
  spill(path, blob);

  const auto owned = read_cube_sev(blob);
  const auto mapped = map_cube_sev_file(path);
  ASSERT_TRUE(mapped->borrowed());
  const Metadata& md = e.metadata();
  const std::size_t cells =
      md.num_metrics() * md.num_cnodes() * md.num_threads();
  for (MetricIndex m = 0; m < md.num_metrics(); ++m) {
    for (CnodeIndex c = 0; c < md.num_cnodes(); ++c) {
      for (ThreadIndex t = 0; t < md.num_threads(); ++t) {
        EXPECT_EQ(mapped->get(m, c, t), owned->get(m, c, t));
      }
    }
  }
  // Released pages refault from the file: values unchanged.
  mapped->release_cells(0, cells);
  for (MetricIndex m = 0; m < md.num_metrics(); ++m) {
    EXPECT_EQ(mapped->get(m, 0, 0), owned->get(m, 0, 0));
  }
}

TEST_F(RepoShardsTest, ShardedBlobAndFilePlacement) {
  ExperimentRepository repo(dir_);
  repo.store(make_small(StorageKind::Dense, "placed"), RepoFormat::Columnar);
  const RepoEntry& entry = repo.entries()[0];
  // Experiment file under exp/<ab>/, blobs named by their own digest.
  EXPECT_EQ(entry.file.rfind("exp/", 0), 0u);
  for (const char* sub : {"meta", "sev"}) {
    for (const auto& file :
         std::filesystem::recursive_directory_iterator(dir_ / sub)) {
      if (!file.is_regular_file()) continue;
      EXPECT_EQ(file.path().parent_path().filename().string(),
                file.path().filename().string().substr(0, 2))
          << file.path();
    }
  }
}

}  // namespace
}  // namespace cube
