// The Result wire form: a CUBESEV1 severity blob that the client borrows
// in place.  Every malformed payload — truncated, bit-flipped, inflated,
// misaligned, or carrying bad sparse keys — raises a typed cube::Error and
// never reads out of bounds (this suite runs under ASan/UBSan in CI).  A
// borrowed store keeps its cells through release_cells(), and the body
// is never larger than the CUBEBIN2 body it replaced plus one blob header.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "io/binary_format.hpp"
#include "io/severity_format.hpp"
#include "model/system_factory.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/result_cache.hpp"
#include "testutil.hpp"

namespace {

using cube::Error;
using cube::Experiment;
using cube::Metadata;
using cube::Severity;
using cube::StorageKind;
using namespace cube::server;

constexpr std::size_t kSevHeader = 56;

/// small_metadata's metrics and call tree over `ranks` single-threaded
/// processes: 3 metrics x 4 cnodes x `ranks` threads.
std::unique_ptr<Metadata> wide_metadata(int ranks) {
  auto md = std::make_unique<Metadata>();
  const auto& time =
      md->add_metric(nullptr, "time", "Time", cube::Unit::Seconds, "total");
  md->add_metric(&time, "mpi", "MPI", cube::Unit::Seconds, "mpi time");
  md->add_metric(nullptr, "visits", "Visits", cube::Unit::Occurrences, "v");
  const auto& r_main = md->add_region("main", "app.c", 1, 100);
  const auto& r_work = md->add_region("work", "app.c", 10, 50);
  const auto& r_io = md->add_region("io", "app.c", 60, 80);
  const auto& c_main = md->add_cnode_for_region(nullptr, r_main, "app.c", 1);
  const auto& c_work = md->add_cnode_for_region(&c_main, r_work, "app.c", 12);
  md->add_cnode_for_region(&c_work, r_io, "app.c", 30);
  md->add_cnode_for_region(&c_main, r_io, "app.c", 62);
  cube::build_regular_system(*md, "m0", 1, ranks);
  return md;
}

/// An experiment whose flattened cell k holds 0.5 + k wherever
/// k % 100 < fill_percent, and zero elsewhere.
Experiment patterned(std::unique_ptr<Metadata> md, StorageKind kind,
                     int fill_percent) {
  Experiment e(std::move(md), kind);
  e.set_name("patterned");
  e.set_attribute("run", "wire");
  const std::size_t cnodes = e.metadata().num_cnodes();
  const std::size_t threads = e.metadata().num_threads();
  for (std::size_t m = 0; m < e.metadata().num_metrics(); ++m) {
    for (std::size_t c = 0; c < cnodes; ++c) {
      for (std::size_t t = 0; t < threads; ++t) {
        const std::size_t k = (m * cnodes + c) * threads + t;
        if (static_cast<int>(k % 100) < fill_percent) {
          e.severity().set(m, c, t, 0.5 + static_cast<double>(k));
        }
      }
    }
  }
  return e;
}

/// The payload a session sends for `e` the first time it sees its
/// metadata.
std::string result_payload(const Experiment& e) {
  return encode_result(CachedResult::encode("canon(e)", e)
                           .payload(Served::Computed, 1.25, true));
}

ClientResult decode(std::string payload) {
  MetadataStore metas;
  return decode_client_result(std::move(payload), metas);
}

/// Decodes, reporting whether a typed cube::Error was raised.  Any other
/// exception escapes and fails the test.
bool decode_throws(std::string payload) {
  try {
    (void)decode(std::move(payload));
  } catch (const Error&) {
    return true;
  }
  return false;
}

/// Payload offsets of the fixed-size fields around the variable ones.
struct Layout {
  std::size_t digest = 0;  ///< u64 meta_digest
  std::size_t pad = 0;     ///< u32 pad
  std::size_t blob = 0;    ///< CUBESEV1 blob
};

Layout layout_of(const std::string& payload) {
  const ResultView v = decode_result_view(payload);
  Layout l;
  l.digest = 4 + 8 + 4 + v.canonical.size() + 4 + v.meta_blob.size();
  l.pad = l.digest + 8 + 4;
  for (const auto& [key, value] : v.attributes) {
    l.pad += 4 + key.size() + 4 + value.size();
  }
  l.blob = v.severity_offset;
  return l;
}

std::uint64_t get_u64(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof v);
  return v;
}

void put_u64(std::string& bytes, std::size_t at, std::uint64_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof v);
}

/// The two blob kinds: a full dense result and a 20%-filled one.
std::vector<Experiment> both_kinds() {
  std::vector<Experiment> out;
  out.push_back(cube::testing::make_small(StorageKind::Dense, "dense"));
  out.push_back(patterned(cube::testing::small_metadata(),
                          StorageKind::Dense, 20));
  return out;
}

TEST(ResultWire, BothBlobKindsDecodeToTheSameExperiment) {
  const std::vector<Experiment> experiments = both_kinds();
  const StorageKind expected[] = {StorageKind::Dense, StorageKind::Sparse};
  for (std::size_t i = 0; i < experiments.size(); ++i) {
    const ClientResult got = decode(result_payload(experiments[i]));
    EXPECT_EQ(got.experiment.severity().kind(), expected[i]);
    EXPECT_TRUE(got.experiment.severity().borrowed());
    EXPECT_EQ(got.canonical, "canon(e)");
    EXPECT_EQ(got.served, Served::Computed);
    EXPECT_TRUE(got.meta_shipped);
    EXPECT_EQ(cube::to_cube_binary(got.experiment),
              cube::to_cube_binary(experiments[i]));
  }
}

TEST(ResultWire, TruncationAtEveryOffsetIsATypedError) {
  for (const Experiment& e : both_kinds()) {
    const std::string payload = result_payload(e);
    for (std::size_t n = 0; n < payload.size(); ++n) {
      EXPECT_TRUE(decode_throws(payload.substr(0, n))) << "cut at " << n;
    }
  }
}

TEST(ResultWire, BitFlipsInPrefixAndBlobHeaderNeverReadOutOfBounds) {
  for (const Experiment& e : both_kinds()) {
    const std::string payload = result_payload(e);
    const Layout l = layout_of(payload);
    const std::size_t blob = l.blob;
    for (std::size_t at = 0; at < blob + kSevHeader; ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = payload;
        flipped[at] = static_cast<char>(flipped[at] ^ (1 << bit));
        const bool threw = decode_throws(std::move(flipped));
        // Structure is always checked: the metadata digest against the
        // shipped blob, and the blob's magic, kind, geometry and entry
        // count against its size and the metadata.  The blob's own
        // digest is not (the client does not re-hash), and free-valued
        // fields (served time, strings) may decode to other values.
        const bool structural =
            (at >= l.digest && at < l.digest + 8) ||
            (at >= blob && at < blob + kSevHeader - 8);
        if (structural) {
          EXPECT_TRUE(threw) << "byte " << at << " bit " << bit;
        }
      }
    }
  }
}

TEST(ResultWire, InflatedEntryCountIsATypedError) {
  for (const Experiment& e : both_kinds()) {
    const std::string payload = result_payload(e);
    const std::size_t blob = decode_result_view(payload).severity_offset;
    for (const std::uint64_t entries :
         {get_u64(payload, blob + 40) + 1, std::uint64_t{1} << 40,
          ~std::uint64_t{0}}) {
      std::string bad = payload;
      put_u64(bad, blob + 40, entries);
      EXPECT_TRUE(decode_throws(std::move(bad))) << entries;
    }
  }
}

TEST(ResultWire, DenseCountThatMismatchesTheGeometryIsATypedError) {
  const std::string payload =
      result_payload(cube::testing::make_small(StorageKind::Dense));
  const std::size_t blob = decode_result_view(payload).severity_offset;
  ASSERT_EQ(get_u64(payload, blob + 8), 0u);  // dense
  // One cell fewer, and the payload shortened to match: the size is
  // consistent, the geometry is not.
  std::string bad = payload.substr(0, payload.size() - sizeof(Severity));
  put_u64(bad, blob + 40, get_u64(payload, blob + 40) - 1);
  EXPECT_TRUE(decode_throws(bad));
  // A geometry that matches the count but not the metadata.
  std::string reshaped = payload;
  put_u64(reshaped, blob + 16, get_u64(payload, blob + 24));  // metrics
  put_u64(reshaped, blob + 24, get_u64(payload, blob + 16));  // cnodes
  EXPECT_TRUE(decode_throws(reshaped));
}

TEST(ResultWire, SparseKeysOutOfRangeOrOrderAreTypedErrors) {
  const Experiment e = patterned(cube::testing::small_metadata(),
                                 StorageKind::Sparse, 20);
  const std::string payload = result_payload(e);
  const std::size_t blob = decode_result_view(payload).severity_offset;
  ASSERT_EQ(get_u64(payload, blob + 8), 1u);  // sparse
  const std::uint64_t entries = get_u64(payload, blob + 40);
  ASSERT_GE(entries, 2u);
  const std::size_t keys = blob + kSevHeader;
  const std::uint64_t cells = e.severity().num_cells();

  std::string out_of_range = payload;
  put_u64(out_of_range, keys + (entries - 1) * 8, cells);
  EXPECT_TRUE(decode_throws(out_of_range));

  std::string unordered = payload;
  put_u64(unordered, keys, get_u64(payload, keys + 8));
  put_u64(unordered, keys + 8, get_u64(payload, keys));
  EXPECT_TRUE(decode_throws(unordered));

  std::string repeated = payload;
  put_u64(repeated, keys + 8, get_u64(payload, keys));
  EXPECT_TRUE(decode_throws(repeated));
}

TEST(ResultWire, BlobAtAMisalignedOffsetIsATypedError) {
  const std::string payload =
      result_payload(cube::testing::make_small(StorageKind::Dense));
  const Layout l = layout_of(payload);
  std::uint32_t pad = 0;
  std::memcpy(&pad, payload.data() + l.pad, 4);
  ASSERT_EQ(l.pad + 4 + pad, l.blob);
  for (const std::uint32_t shift : {1u, 3u}) {
    // Any other pad in 0..7 puts the blob at a misaligned offset.
    const std::uint32_t bad_pad = (pad + shift) % 8;
    std::string shifted = payload.substr(0, l.pad);
    shifted.append(reinterpret_cast<const char*>(&bad_pad), 4);
    shifted.append(bad_pad, '\0');
    shifted += payload.substr(l.blob);
    EXPECT_THROW((void)decode_result_view(shifted), ProtocolError);
    EXPECT_TRUE(decode_throws(shifted));
  }
  // A pad of 8 or more, or a non-zero pad byte, is rejected too.
  std::string wide = payload;
  const std::uint32_t eight = 8;
  std::memcpy(wide.data() + l.pad, &eight, 4);
  EXPECT_THROW((void)decode_result_view(wide), ProtocolError);
  if (pad > 0) {
    std::string dirty = payload;
    dirty[l.pad + 4] = 1;
    EXPECT_THROW((void)decode_result_view(dirty), ProtocolError);
  }
}

TEST(ResultWire, UnknownOrMismatchedMetadataIsATypedError) {
  const Experiment e = cube::testing::make_small(StorageKind::Dense);
  const CachedResult cached = CachedResult::encode("c", e);
  // Metadata not shipped, and this session never received it.
  EXPECT_TRUE(decode_throws(
      encode_result(cached.payload(Served::CacheHit, 0.0, false))));
  // Shipped once, then served by digest alone.
  MetadataStore metas;
  (void)decode_client_result(
      encode_result(cached.payload(Served::Computed, 0.0, true)), metas);
  const ClientResult again = decode_client_result(
      encode_result(cached.payload(Served::CacheHit, 0.0, false)), metas);
  EXPECT_FALSE(again.meta_shipped);
  EXPECT_EQ(again.experiment.metadata_ptr(), metas.begin()->second);
}

TEST(ResultWire, ReleaseCellsOverAWireBorrowedStoreKeepsEveryCell) {
  // 3 x 4 x 1024 cells: the dense blob spans several whole pages, and the
  // 49%-filled one is sparse with more than a page per column.
  for (const int fill : {100, 49}) {
    const Experiment e = patterned(wide_metadata(1024), StorageKind::Dense,
                                   fill);
    const ClientResult got = decode(result_payload(e));
    const cube::SeverityStore& sev = got.experiment.severity();
    ASSERT_TRUE(sev.borrowed());
    EXPECT_EQ(sev.kind(), fill == 100 ? StorageKind::Dense
                                      : StorageKind::Sparse);
    sev.release_cells(0, sev.num_cells());
    EXPECT_EQ(cube::to_cube_binary(got.experiment), cube::to_cube_binary(e));
  }
}

TEST(ResultWire, BodyIsNeverLargerThanTheCubebin2BodyPlusOneHeader) {
  // The body is what replaced the CUBEBIN2 body: everything after the
  // served mode, server time, canonical text and metadata blob.
  const auto body_size = [](const Experiment& e) {
    const CachedResult cached = CachedResult::encode("canon", e);
    const std::string payload =
        encode_result(cached.payload(Served::Computed, 0.0, true));
    return payload.size() -
           (4 + 8 + 4 + cached.canonical.size() + 4 +
            cached.meta_blob->size());
  };
  for (const StorageKind kind : {StorageKind::Dense, StorageKind::Sparse}) {
    for (const int fill : {0, 10, 49, 50, 100}) {
      const Experiment e = patterned(wide_metadata(64), kind, fill);
      const std::size_t cubebin2 = cube::to_cube_binary_ref(e).size();
      EXPECT_LE(body_size(e), cubebin2 + kSevHeader)
          << (kind == StorageKind::Dense ? "dense" : "sparse") << " fill "
          << fill;
    }
  }
}

}  // namespace
