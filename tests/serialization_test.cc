// Tests for index persistence: save/load round trips (plain, refined,
// trained, updated indexes), probe/join equivalence, and typed rejection
// of corrupt or alien files. Format v2 frames every section with a CRC32C
// trailer, so the corruption sweep asserts not just *that* a mangled file
// is refused but that the LoadError says *why* (truncation vs checksum vs
// bad data) — the distinction operators need to tell bit-rot from absence.

//
// Seeding convention (full rationale in util_test.cc): random data comes
// only from util::Rng with explicit literal seeds or from the workload
// factories, whose default seeds are fixed compile-time constants -- never
// time- or address-derived -- so every ctest run is bit-reproducible.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "act/serialization.h"
#include "geo/grid.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "workloads/datasets.h"

namespace actjoin::act {
namespace {

using geo::Grid;

std::string TmpPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  auto size = static_cast<size_t>(in.tellg());
  in.seekg(0);
  std::string bytes(size, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(size));
  return bytes;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A small but fully featured index (multiple polygons, options, covering)
// serialized to bytes, for corruption experiments.
std::string SerializedIndexBytes(const std::string& path) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.03);
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(ds.polygons, grid, opts);
  EXPECT_TRUE(SaveIndex(index, path));
  return ReadFile(path);
}

// --- v2 section map helpers ------------------------------------------------
// file := u32 magic | u32 version | 3 x [u32 tag | u64 len | payload | u32
// crc32c(payload)], all little-endian.

struct SectionLoc {
  uint32_t tag = 0;
  size_t payload_off = 0;
  size_t payload_len = 0;
  size_t crc_off = 0;
};

uint64_t ReadLe(const std::string& bytes, size_t off, int width) {
  uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[off + i]))
         << (8 * i);
  }
  return v;
}

std::vector<SectionLoc> LocateSections(const std::string& bytes) {
  std::vector<SectionLoc> out;
  size_t off = 8;
  while (off + 16 <= bytes.size()) {
    SectionLoc s;
    s.tag = static_cast<uint32_t>(ReadLe(bytes, off, 4));
    s.payload_len = ReadLe(bytes, off + 4, 8);
    s.payload_off = off + 12;
    s.crc_off = s.payload_off + s.payload_len;
    out.push_back(s);
    off = s.crc_off + 4;
  }
  EXPECT_EQ(off, bytes.size());
  return out;
}

// Recomputes a section's CRC trailer after the test patched its payload,
// so the loader's *semantic* validation (not the checksum) is exercised.
void FixCrc(std::string* bytes, const SectionLoc& s) {
  uint32_t crc = util::Crc32c(bytes->data() + s.payload_off, s.payload_len);
  for (int i = 0; i < 4; ++i) {
    (*bytes)[s.crc_off + static_cast<size_t>(i)] =
        static_cast<char>(crc >> (8 * i));
  }
}

LoadError LoadErrorOf(const std::string& path) {
  LoadError error = LoadError::kNone;
  EXPECT_FALSE(LoadIndex(path, &error).has_value());
  return error;
}

void ExpectIndexesEquivalent(const PolygonIndex& a, const PolygonIndex& b,
                             const geom::Rect& mbr) {
  ASSERT_EQ(a.covering().size(), b.covering().size());
  ASSERT_EQ(a.polygons().size(), b.polygons().size());
  Grid grid(a.grid().curve());
  util::Rng rng(4711);
  for (int s = 0; s < 5000; ++s) {
    geo::LatLng p{rng.Uniform(mbr.lo.y, mbr.hi.y),
                  rng.Uniform(mbr.lo.x, mbr.hi.x)};
    uint64_t leaf = grid.CellAt(p).id();
    // Decoded references must match; raw entries can differ only in
    // lookup-table offsets, so compare via the covering's reference probe.
    int64_t ia = a.covering().FindContaining(geo::CellId(leaf));
    int64_t ib = b.covering().FindContaining(geo::CellId(leaf));
    ASSERT_EQ(ia >= 0, ib >= 0);
    if (ia >= 0) {
      ASSERT_TRUE(std::ranges::equal(a.covering().refs(ia),
                                     b.covering().refs(ib)));
    }
  }
}

TEST(Serialization, RoundTripPlainIndex) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(ds.polygons, grid, opts);

  std::string path = TmpPath("plain.actj");
  ASSERT_TRUE(SaveIndex(index, path));
  LoadError error = LoadError::kBadData;
  std::optional<PolygonIndex> loaded = LoadIndex(path, &error);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(error, LoadError::kNone);
  ExpectIndexesEquivalent(index, *loaded, ds.mbr);

  // Joins agree pair for pair.
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 2000, grid, 41);
  EXPECT_EQ(index.JoinPairs(pts.AsJoinInput(), JoinMode::kExact),
            loaded->JoinPairs(pts.AsJoinInput(), JoinMode::kExact));
  std::remove(path.c_str());
}

TEST(Serialization, RoundTripRefinedAndTrained) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(ds.polygons, grid, opts);
  wl::PointSet history = wl::TaxiPoints(ds.mbr, 10000, grid, 42);
  index.Train(history.AsJoinInput());

  std::string path = TmpPath("trained.actj");
  ASSERT_TRUE(SaveIndex(index, path));
  std::optional<PolygonIndex> loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.has_value());
  // Training effort is preserved: same covering size, same refinement.
  EXPECT_EQ(loaded->covering().size(), index.covering().size());
  ExpectIndexesEquivalent(index, *loaded, ds.mbr);
  std::remove(path.c_str());
}

TEST(Serialization, RoundTripPrecisionBoundAndOptions) {
  Grid grid(geo::CurveType::kMorton);
  wl::PolygonDataset ds = wl::Neighborhoods(0.04);
  BuildOptions opts;
  opts.threads = 1;
  opts.precision_bound_m = 90.0;
  opts.act.bits_per_level = 4;
  PolygonIndex index = PolygonIndex::Build(ds.polygons, grid, opts);

  std::string path = TmpPath("options.actj");
  ASSERT_TRUE(SaveIndex(index, path));
  std::optional<PolygonIndex> loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->grid().curve(), geo::CurveType::kMorton);
  ASSERT_TRUE(loaded->options().precision_bound_m.has_value());
  EXPECT_DOUBLE_EQ(*loaded->options().precision_bound_m, 90.0);
  EXPECT_EQ(loaded->options().act.bits_per_level, 4);
  ExpectIndexesEquivalent(index, *loaded, ds.mbr);
  std::remove(path.c_str());
}

TEST(Serialization, LoadedIndexSupportsUpdatesAndTraining) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  const size_t half = ds.polygons.size() / 2;
  std::vector<geom::Polygon> first_half(ds.polygons.begin(),
                                        ds.polygons.begin() + half);
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(first_half, grid, opts);

  std::string path = TmpPath("updatable.actj");
  ASSERT_TRUE(SaveIndex(index, path));
  std::optional<PolygonIndex> loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.has_value());

  std::vector<geom::Polygon> second_half(ds.polygons.begin() + half,
                                         ds.polygons.end());
  loaded->AddPolygons(second_half);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 2000, grid, 43);
  EXPECT_EQ(loaded->JoinPairs(pts.AsJoinInput(), JoinMode::kExact),
            BruteForceJoinPairs(pts.AsJoinInput(), ds.polygons));
  std::remove(path.c_str());
}

TEST(Serialization, MissingFileIsTypedMissing) {
  LoadError error = LoadError::kNone;
  EXPECT_FALSE(LoadIndex("/nonexistent/path/x.actj", &error).has_value());
  EXPECT_EQ(error, LoadError::kMissing);
  // The error out-param stays optional.
  EXPECT_FALSE(LoadIndex("/nonexistent/path/x.actj").has_value());
}

TEST(Serialization, RejectsBadMagicTyped) {
  std::string path = TmpPath("garbage.actj");
  WriteFile(path, "this is not an index file");
  EXPECT_EQ(LoadErrorOf(path), LoadError::kBadMagic);
  std::remove(path.c_str());
}

TEST(Serialization, RejectsVersionMismatchTyped) {
  // A file from another format version — including v1, which had no
  // section checksums — must be refused up front as kBadVersion, not
  // half-parsed into a broken index.
  std::string path = TmpPath("version.actj");
  std::string bytes = SerializedIndexBytes(path);
  ASSERT_GE(bytes.size(), 8u);  // [magic u32][version u32]...
  for (uint32_t version : {0u, 1u, 3u, 0xffffffffu}) {
    std::string patched = bytes;
    std::memcpy(patched.data() + 4, &version, sizeof(version));
    WriteFile(path, patched);
    EXPECT_EQ(LoadErrorOf(path), LoadError::kBadVersion)
        << "version " << version;
  }
  // Unpatched control: the original bytes still load.
  WriteFile(path, bytes);
  EXPECT_TRUE(LoadIndex(path).has_value());
  std::remove(path.c_str());
}

TEST(Serialization, RejectsTruncationAtEveryPrefixTyped) {
  // Cutting the stream at *any* byte boundary must yield a clean typed
  // kTruncated — never UB, a crash, or a partially populated index. Every
  // prefix of the header region is tried byte by byte; the (large)
  // polygon/covering tail is strided. Run under ASan/UBSan in CI, this is
  // the harness's proof that the loader validates lengths before it
  // trusts them.
  std::string path = TmpPath("prefix.actj");
  std::string bytes = SerializedIndexBytes(path);
  ASSERT_GT(bytes.size(), 64u);
  size_t checked = 0;
  for (size_t len = 0; len < bytes.size(); len += (len < 128 ? 1 : 997)) {
    WriteFile(path, bytes.substr(0, len));
    EXPECT_EQ(LoadErrorOf(path), LoadError::kTruncated)
        << "prefix length " << len;
    ++checked;
  }
  EXPECT_GT(checked, 128u);
  std::remove(path.c_str());
}

TEST(Serialization, FileHasThreeCrcFramedSections) {
  std::string path = TmpPath("sections.actj");
  std::string bytes = SerializedIndexBytes(path);
  std::vector<SectionLoc> sections = LocateSections(bytes);
  ASSERT_EQ(sections.size(), 3u);
  EXPECT_EQ(sections[0].tag, 1u);  // options
  EXPECT_EQ(sections[1].tag, 2u);  // polygons
  EXPECT_EQ(sections[2].tag, 3u);  // covering
  for (const SectionLoc& s : sections) {
    EXPECT_EQ(ReadLe(bytes, s.crc_off, 4),
              util::Crc32c(bytes.data() + s.payload_off, s.payload_len));
  }
  std::remove(path.c_str());
}

TEST(Serialization, CoveringSectionIsTheDocumentedLayout) {
  // Covering payload: u64 n_cells, then per cell u64 id | u32 n_refs |
  // n_refs x u32 (polygon_id << 1 | interior), little-endian. Rebuilt
  // here from the loaded covering, it must match the file byte for byte,
  // and the load must reproduce the saved covering exactly.
  std::string path = TmpPath("layout.actj");
  std::string bytes = SerializedIndexBytes(path);
  std::vector<SectionLoc> sections = LocateSections(bytes);
  ASSERT_EQ(sections.size(), 3u);
  std::optional<PolygonIndex> loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.has_value());
  const SuperCovering& sc = loaded->covering();
  std::string want;
  auto put = [&](uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      want.push_back(static_cast<char>(v >> (8 * i)));
    }
  };
  put(sc.size(), 8);
  for (size_t i = 0; i < sc.size(); ++i) {
    put(sc.cell(i).id(), 8);
    put(sc.refs(i).size(), 4);
    for (const PolygonRef& r : sc.refs(i)) put(r.Encode(), 4);
  }
  EXPECT_EQ(bytes.substr(sections[2].payload_off, sections[2].payload_len),
            want);

  Grid grid;
  BuildOptions opts;
  opts.threads = 1;
  EXPECT_TRUE(
      PolygonIndex::Build(wl::Neighborhoods(0.03).polygons, grid, opts)
          .covering() == sc);
  std::remove(path.c_str());
}

TEST(Serialization, FlippingOneByteInEachSectionFailsChecksumTyped) {
  // One flipped bit anywhere inside any CRC-covered payload must surface
  // as kBadChecksum at load — this is the bit-rot detection the format
  // exists for. Restoring the byte restores loadability (control).
  std::string path = TmpPath("bitrot.actj");
  std::string bytes = SerializedIndexBytes(path);
  std::vector<SectionLoc> sections = LocateSections(bytes);
  ASSERT_EQ(sections.size(), 3u);
  for (const SectionLoc& s : sections) {
    ASSERT_GT(s.payload_len, 0u);
    for (size_t pos : {size_t{0}, s.payload_len / 2, s.payload_len - 1}) {
      std::string patched = bytes;
      patched[s.payload_off + pos] ^= 0x40;
      WriteFile(path, patched);
      EXPECT_EQ(LoadErrorOf(path), LoadError::kBadChecksum)
          << "section " << s.tag << " byte " << pos;
    }
  }
  // A corrupted CRC trailer itself also reads as a checksum mismatch.
  std::string patched = bytes;
  patched[sections[1].crc_off] ^= 0x01;
  WriteFile(path, patched);
  EXPECT_EQ(LoadErrorOf(path), LoadError::kBadChecksum);

  WriteFile(path, bytes);
  EXPECT_TRUE(LoadIndex(path).has_value());
  std::remove(path.c_str());
}

TEST(Serialization, RejectsBadBitsPerLevelAsBadData) {
  // Semantic validation fires only after the checksum passes: patch the
  // bits_per_level field *and* recompute the section CRC, so the loader
  // sees intact-but-invalid bytes. Options payload layout:
  //   curve u8 | 4 x u32 | has_bound u8 | bound f64 | bits u32 | root u8
  std::string path = TmpPath("bits.actj");
  std::string bytes = SerializedIndexBytes(path);
  std::vector<SectionLoc> sections = LocateSections(bytes);
  ASSERT_EQ(sections.size(), 3u);
  const size_t bits_off = sections[0].payload_off + 1 + 16 + 1 + 8;
  ASSERT_LE(bits_off + 4, sections[0].crc_off);
  for (uint32_t bad : {0u, 9u, 0x80000000u, 1u << 20}) {
    std::string patched = bytes;
    std::memcpy(patched.data() + bits_off, &bad, sizeof(bad));
    FixCrc(&patched, sections[0]);
    WriteFile(path, patched);
    EXPECT_EQ(LoadErrorOf(path), LoadError::kBadData)
        << "bits_per_level " << bad;
  }
  std::remove(path.c_str());
}

TEST(Serialization, RejectsCorruptCellIdsAsBadData) {
  // Re-CRC'd covering bytes with mangled cell ids: the validity /
  // sortedness / disjointness checks must catch what the checksum cannot.
  std::string path = TmpPath("corrupt.actj");
  std::string bytes = SerializedIndexBytes(path);
  std::vector<SectionLoc> sections = LocateSections(bytes);
  ASSERT_EQ(sections.size(), 3u);
  const SectionLoc& covering = sections[2];
  ASSERT_GT(covering.payload_len, 64u);
  std::string patched = bytes;
  for (size_t k = covering.payload_len - 64; k < covering.payload_len; ++k) {
    patched[covering.payload_off + k] = static_cast<char>(0xFF);
  }
  FixCrc(&patched, covering);
  WriteFile(path, patched);
  EXPECT_EQ(LoadErrorOf(path), LoadError::kBadData);
  std::remove(path.c_str());
}

TEST(Serialization, RejectsTrailingGarbageAsBadData) {
  std::string path = TmpPath("trailing.actj");
  std::string bytes = SerializedIndexBytes(path);
  WriteFile(path, bytes + std::string(1, '\0'));
  EXPECT_EQ(LoadErrorOf(path), LoadError::kBadData);
  std::remove(path.c_str());
}

TEST(SerializationCrc32c, KnownVectorsAndChaining) {
  // RFC 3720 test vectors for CRC32C.
  EXPECT_EQ(util::Crc32c("", 0), 0u);
  EXPECT_EQ(util::Crc32c("123456789", 9), 0xE3069283u);
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(util::Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  std::vector<uint8_t> ones(32, 0xFF);
  EXPECT_EQ(util::Crc32c(ones.data(), ones.size()), 0x62A8AB43u);

  // Chaining across an arbitrary split equals one pass (every split point
  // exercises both the sliced and the byte-tail paths).
  const char* msg = "The quick brown fox jumps over the lazy dog";
  const size_t n = std::strlen(msg);
  uint32_t whole = util::Crc32c(msg, n);
  for (size_t cut = 0; cut <= n; ++cut) {
    EXPECT_EQ(util::Crc32c(msg + cut, n - cut, util::Crc32c(msg, cut)), whole)
        << "cut=" << cut;
  }
}

}  // namespace
}  // namespace actjoin::act
