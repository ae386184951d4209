// Unit tests of the CUBESEV1 columnar severity blob (severity_format.hpp):
// round-trips for both storage kinds, the integrity checks each reader
// tier performs, and the mmap-backed store's equivalence to the owned one.
#include "io/severity_format.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "model/severity.hpp"
#include "testutil.hpp"

namespace cube {
namespace {

using cube::testing::make_small;

class SeverityFormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("cube_sev_" + std::string(::testing::UnitTest::GetInstance()
                                          ->current_test_info()
                                          ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path write_blob(const std::string& bytes,
                                   const char* name = "b.sev") const {
    const std::filesystem::path path = dir_ / name;
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
  }

  std::filesystem::path dir_;
};

TEST_F(SeverityFormatTest, DenseRoundTrip) {
  const Experiment e = make_small(StorageKind::Dense);
  const std::string blob = to_cube_sev(e.severity());
  EXPECT_TRUE(is_cube_sev(blob));
  const auto back = read_cube_sev(blob);
  ASSERT_EQ(back->kind(), StorageKind::Dense);
  ASSERT_EQ(back->num_cells(), e.severity().num_cells());
  for (MetricIndex m = 0; m < e.metadata().num_metrics(); ++m) {
    for (CnodeIndex c = 0; c < e.metadata().num_cnodes(); ++c) {
      for (ThreadIndex t = 0; t < e.metadata().num_threads(); ++t) {
        EXPECT_EQ(back->get(m, c, t), e.severity().get(m, c, t));
      }
    }
  }
}

TEST_F(SeverityFormatTest, SparseRoundTripKeepsOnlyNonzeros) {
  Experiment e = make_small(StorageKind::Sparse);
  e.severity().set(0, 1, 2, 0.0);
  const std::string blob = to_cube_sev(e.severity());
  const auto back = read_cube_sev(blob);
  ASSERT_EQ(back->kind(), StorageKind::Sparse);
  EXPECT_EQ(back->nonzero_count(), e.severity().nonzero_count());
  EXPECT_EQ(back->get(0, 1, 2), 0.0);
  EXPECT_EQ(back->get(1, 1, 1), e.severity().get(1, 1, 1));
}

TEST_F(SeverityFormatTest, SerializationIsDeterministic) {
  const Experiment e = make_small(StorageKind::Sparse);
  EXPECT_EQ(to_cube_sev(e.severity()), to_cube_sev(e.severity()));
}

TEST_F(SeverityFormatTest, BadMagicRejected) {
  std::string blob = to_cube_sev(make_small().severity());
  blob[0] = 'X';
  EXPECT_THROW((void)read_cube_sev(blob), Error);
  EXPECT_FALSE(is_cube_sev(blob));
}

TEST_F(SeverityFormatTest, TruncationRejected) {
  const std::string blob = to_cube_sev(make_small().severity());
  EXPECT_THROW((void)read_cube_sev(blob.substr(0, 40)), Error);
  EXPECT_THROW((void)read_cube_sev(blob.substr(0, blob.size() - 8)), Error);
}

TEST_F(SeverityFormatTest, PayloadCorruptionFailsDigest) {
  std::string blob = to_cube_sev(make_small().severity());
  blob[blob.size() - 1] ^= 0x5a;  // flip payload bits, header intact
  EXPECT_THROW((void)read_cube_sev(blob), Error);
  // The full-check entry point sees it too; the mapping entry point (by
  // design) validates the header only.
  const std::filesystem::path path = write_blob(blob);
  EXPECT_THROW(check_cube_sev_file(path), Error);
  EXPECT_NO_THROW((void)map_cube_sev_file(path));
}

TEST_F(SeverityFormatTest, OverflowingHeaderCountsRejected) {
  // Hand-craft header-only blobs whose counts wrap the payload-size
  // product back to zero, so the exact-size check alone would pass and
  // the readers would build astronomically sized stores over 0 payload
  // bytes.  Both entry points must reject them up front.
  const auto u64 = [](std::uint64_t v) {
    std::string out(8, '\0');
    for (int i = 0; i < 8; ++i) {
      out[static_cast<std::size_t>(i)] =
          static_cast<char>((v >> (8 * i)) & 0xff);
    }
    return out;
  };
  const auto header = [&](std::uint64_t kind, std::uint64_t metrics,
                          std::uint64_t cnodes, std::uint64_t threads,
                          std::uint64_t entries) {
    return "CUBESEV1" + u64(kind) + u64(metrics) + u64(cnodes) +
           u64(threads) + u64(entries) + u64(0);
  };
  // Dense: entries = 2^61, geometry matching, 2^61 * 8 bytes wraps to 0.
  const std::string dense =
      header(0, std::uint64_t{1} << 61, 1, 1, std::uint64_t{1} << 61);
  EXPECT_THROW((void)read_cube_sev(dense), Error);
  EXPECT_THROW((void)map_cube_sev_file(write_blob(dense, "d.sev")), Error);
  // Sparse: entries = 2^60, 2^60 * 16 bytes wraps to 0.
  const std::string sparse =
      header(1, std::uint64_t{1} << 60, 2, 1, std::uint64_t{1} << 60);
  EXPECT_THROW((void)read_cube_sev(sparse), Error);
  EXPECT_THROW((void)map_cube_sev_file(write_blob(sparse, "s.sev")), Error);
  // Geometry whose cell product overflows uint64 outright.
  const std::string huge = header(1, std::uint64_t{1} << 32,
                                  std::uint64_t{1} << 32, 2, 0);
  EXPECT_THROW((void)read_cube_sev(huge), Error);
  EXPECT_THROW((void)map_cube_sev_file(write_blob(huge, "g.sev")), Error);
}

TEST_F(SeverityFormatTest, MappedStoreMatchesOwned) {
  const Experiment e = make_small(StorageKind::Dense);
  const std::string blob = to_cube_sev(e.severity());
  const std::filesystem::path path = write_blob(blob);
  const auto mapped = map_cube_sev_file(path);
  EXPECT_TRUE(mapped->borrowed());
  for (MetricIndex m = 0; m < e.metadata().num_metrics(); ++m) {
    for (CnodeIndex c = 0; c < e.metadata().num_cnodes(); ++c) {
      for (ThreadIndex t = 0; t < e.metadata().num_threads(); ++t) {
        EXPECT_EQ(mapped->get(m, c, t), e.severity().get(m, c, t));
      }
    }
  }
}

TEST_F(SeverityFormatTest, MappedSparseStoreMatchesOwned) {
  Experiment e = make_small(StorageKind::Sparse);
  e.severity().set(2, 3, 1, 0.0);
  const std::filesystem::path path = write_blob(to_cube_sev(e.severity()));
  const auto mapped = map_cube_sev_file(path);
  EXPECT_TRUE(mapped->borrowed());
  ASSERT_EQ(mapped->kind(), StorageKind::Sparse);
  EXPECT_EQ(mapped->nonzero_count(), e.severity().nonzero_count());
  for (MetricIndex m = 0; m < e.metadata().num_metrics(); ++m) {
    for (CnodeIndex c = 0; c < e.metadata().num_cnodes(); ++c) {
      for (ThreadIndex t = 0; t < e.metadata().num_threads(); ++t) {
        EXPECT_EQ(mapped->get(m, c, t), e.severity().get(m, c, t));
      }
    }
  }
}

TEST_F(SeverityFormatTest, DirectoryResolverFindsShardedBlob) {
  const Experiment e = make_small(StorageKind::Dense);
  const std::string blob = to_cube_sev(e.severity());
  const std::uint64_t digest = fnv1a(blob);
  const std::string name = sev_blob_name(digest);
  const std::filesystem::path target =
      dir_ / "sev" / name.substr(0, 2) / name;
  std::filesystem::create_directories(target.parent_path());
  {
    std::ofstream out(target, std::ios::binary);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
  const SeverityResolver resolver = directory_severity_resolver(dir_);
  const auto store = resolver(digest, StorageKind::Dense);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->get(1, 1, 1), e.severity().get(1, 1, 1));
  // Unknown digests resolve to nothing rather than throwing.
  EXPECT_EQ(resolver(digest ^ 1, StorageKind::Dense), nullptr);
}

}  // namespace
}  // namespace cube
