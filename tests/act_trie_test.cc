// Tests for the Adaptive Cell Trie: probe correctness against the
// super-covering reference probe across all fanouts, key extension, root
// prefix handling, multi-face trees, and structural stats.

//
// Seeding convention (full rationale in util_test.cc): random data comes
// only from util::Rng with explicit literal seeds or from the workload
// factories, whose default seeds are fixed compile-time constants -- never
// time- or address-derived -- so every ctest run is bit-reproducible.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "act/act.h"
#include "act/classifier.h"
#include "act/pipeline.h"
#include "act/super_covering.h"
#include "geo/grid.h"
#include "util/bitops.h"
#include "util/random.h"
#include "workloads/datasets.h"
#include "workloads/polygon_gen.h"

namespace actjoin::act {
namespace {

using actjoin::util::Rng;
using geo::CellId;
using geo::Grid;

RefList OneRef(uint32_t pid, bool interior) {
  RefList l;
  l.push_back({pid, interior});
  return l;
}

// Decodes an entry's refs into a normalized form for comparison.
std::vector<std::pair<uint32_t, bool>> DecodeRefs(TaggedEntry e,
                                                  const LookupTable& table) {
  std::vector<std::pair<uint32_t, bool>> out;
  if (e == kSentinelEntry) return out;
  switch (KindOf(e)) {
    case EntryKind::kOneRef: {
      PolygonRef r = FirstRefOf(e);
      out.emplace_back(r.polygon_id, r.interior);
      break;
    }
    case EntryKind::kTwoRefs: {
      PolygonRef a = FirstRefOf(e);
      PolygonRef b = SecondRefOf(e);
      out.emplace_back(a.polygon_id, a.interior);
      out.emplace_back(b.polygon_id, b.interior);
      break;
    }
    case EntryKind::kTableOffset:
      table.VisitEntry(TableOffsetOf(e), [&](uint32_t pid, bool th) {
        out.emplace_back(pid, th);
      });
      break;
    case EntryKind::kPointer:
      break;
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<uint32_t, bool>> ReferenceRefs(const SuperCovering& sc,
                                                     const CellId& leaf) {
  std::vector<std::pair<uint32_t, bool>> out;
  int64_t idx = sc.FindContaining(leaf);
  if (idx < 0) return out;
  for (const auto& r : sc.refs(idx)) {
    out.emplace_back(r.polygon_id, r.interior);
  }
  std::sort(out.begin(), out.end());
  return out;
}

class TrieFanoutTest : public ::testing::TestWithParam<int> {};

// 2/4/8 bits = the paper's ACT1/ACT2/ACT4; the odd widths exercise the
// ragged key-extension path (60 path bits not divisible by the width).
INSTANTIATE_TEST_SUITE_P(Fanouts, TrieFanoutTest,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8),
                         [](const auto& info) {
                           return "bits" + std::to_string(info.param);
                         });

TEST_P(TrieFanoutTest, ProbeMatchesReferenceOnRandomCells) {
  Grid grid;
  Rng rng(2024);
  SuperCoveringBuilder b;
  // Random cells at many levels, including conflicts.
  for (int k = 0; k < 500; ++k) {
    geo::LatLng p{rng.Uniform(40.4, 41.0), rng.Uniform(-74.3, -73.7)};
    int level = 3 + static_cast<int>(rng.UniformInt(25));
    b.Insert(grid.CellAt(p, level),
             OneRef(static_cast<uint32_t>(rng.UniformInt(20)),
                    rng.NextDouble() < 0.5));
  }
  SuperCovering sc = b.Build();
  ASSERT_TRUE(sc.IsDisjoint());
  EncodedCovering enc = Encode(sc);
  AdaptiveCellTrie trie(enc, {.bits_per_level = GetParam()});

  for (int s = 0; s < 5000; ++s) {
    geo::LatLng p{rng.Uniform(40.3, 41.1), rng.Uniform(-74.4, -73.6)};
    CellId leaf = grid.CellAt(p);
    ASSERT_EQ(DecodeRefs(trie.Probe(leaf.id()), enc.table),
              ReferenceRefs(sc, leaf))
        << "leaf " << leaf.ToString();
  }
}

TEST_P(TrieFanoutTest, AllIndexedLevelsProbeCorrectly) {
  // One disjoint cell per level 0..30, exercising key extension at every
  // alignment: level 0 gets its own face; levels 1..30 form a staircase on
  // face 1 (cell at level l is child(1) of the level-(l-1) spine node, the
  // spine continues through child(0)).
  Grid grid;
  SuperCoveringBuilder b;
  std::vector<CellId> cells;
  cells.push_back(CellId::FromFace(0));
  CellId spine = CellId::FromFace(1);
  for (int level = 1; level <= 30; ++level) {
    cells.push_back(spine.child(1));
    if (level < 30) spine = spine.child(0);
  }
  for (int level = 0; level <= 30; ++level) {
    ASSERT_EQ(cells[level].level(), level);
    b.Insert(cells[level],
             OneRef(static_cast<uint32_t>(level), level % 2 == 0));
  }
  SuperCovering sc = b.Build();
  ASSERT_EQ(sc.size(), 31u);  // no conflicts by construction
  EncodedCovering enc = Encode(sc);
  AdaptiveCellTrie trie(enc, {.bits_per_level = GetParam()});

  Rng rng(1);
  for (int level = 0; level <= 30; ++level) {
    const CellId& c = cells[level];
    // Probe several leaves inside the cell.
    for (int s = 0; s < 30; ++s) {
      uint64_t span = c.range_max().id() - c.range_min().id();
      uint64_t leaf_id =
          c.range_min().id() + (span == 0 ? 0 : rng.UniformInt(span + 1));
      leaf_id |= 1;
      TaggedEntry e = trie.Probe(leaf_id);
      ASSERT_NE(e, kSentinelEntry) << "level " << level;
      ASSERT_EQ(FirstRefOf(e).polygon_id, static_cast<uint32_t>(level));
    }
    // And just outside.
    CellId neighbor = c.next();
    if (neighbor.is_valid() && sc.FindContaining(neighbor.range_min()) < 0) {
      EXPECT_EQ(trie.Probe(neighbor.range_min().id() | 1), kSentinelEntry);
    }
  }
}

TEST_P(TrieFanoutTest, RootPrefixOnOffEquivalent) {
  Grid grid;
  Rng rng(31337);
  SuperCoveringBuilder b;
  // A tightly clustered covering: long shared prefix.
  for (int k = 0; k < 200; ++k) {
    geo::LatLng p{rng.Uniform(40.70, 40.71), rng.Uniform(-74.01, -74.00)};
    b.Insert(grid.CellAt(p, 18 + static_cast<int>(rng.UniformInt(10))),
             OneRef(static_cast<uint32_t>(k % 7), k % 3 == 0));
  }
  SuperCovering sc = b.Build();
  EncodedCovering enc = Encode(sc);
  AdaptiveCellTrie with(enc, {.bits_per_level = GetParam(),
                              .use_root_prefix = true});
  AdaptiveCellTrie without(enc, {.bits_per_level = GetParam(),
                                 .use_root_prefix = false});
  EXPECT_LT(with.stats().node_count, without.stats().node_count);
  for (int s = 0; s < 3000; ++s) {
    geo::LatLng p{rng.Uniform(40.69, 40.72), rng.Uniform(-74.02, -73.99)};
    uint64_t leaf = grid.CellAt(p).id();
    ASSERT_EQ(DecodeRefs(with.Probe(leaf), enc.table),
              DecodeRefs(without.Probe(leaf), enc.table));
  }
}

TEST(Trie, EmptyishSingleCellFace) {
  Grid grid;
  SuperCoveringBuilder b;
  CellId only = grid.CellAt({40.7, -74.0}, 14);
  b.Insert(only, OneRef(9, true));
  SuperCovering sc = b.Build();
  EncodedCovering enc = Encode(sc);
  for (int bits : {2, 4, 8}) {
    AdaptiveCellTrie trie(enc, {.bits_per_level = bits});
    // With root prefix the whole key collapses: probe inside hits...
    EXPECT_NE(trie.Probe(only.range_min().id() | 1), kSentinelEntry);
    EXPECT_NE(trie.Probe(only.range_max().id()), kSentinelEntry);
    // ...and probes outside miss (different prefix or sentinel).
    EXPECT_EQ(trie.Probe(grid.CellAt({0.0, 0.0}).id()), kSentinelEntry);
    EXPECT_EQ(trie.Probe(only.next().range_min().id() | 1), kSentinelEntry);
  }
}

TEST(Trie, FaceLevelCellValueAtRoot) {
  SuperCoveringBuilder b;
  b.Insert(CellId::FromFace(2), OneRef(5, true));
  SuperCovering sc = b.Build();
  EncodedCovering enc = Encode(sc);
  AdaptiveCellTrie trie(enc, {.bits_per_level = 8});
  Grid grid;
  // Anything on face 2 (south, lng in [60, 180)) hits with depth 0; other
  // faces miss.
  int depth = -1;
  TaggedEntry e = trie.ProbeCounting(grid.CellAt({-10, 100.0}).id(), &depth);
  ASSERT_NE(e, kSentinelEntry);
  EXPECT_EQ(FirstRefOf(e).polygon_id, 5u);
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(trie.Probe(grid.CellAt({10, 100.0}).id()), kSentinelEntry);
}

TEST(Trie, MultiFaceCovering) {
  Grid grid;
  SuperCoveringBuilder b;
  // Cells on several faces (south 0..2, north 3..5).
  b.Insert(grid.CellAt({-10.0, -150.0}, 8), OneRef(0, true));  // face 0
  b.Insert(grid.CellAt({10.0, -90.0}, 8), OneRef(1, true));    // face 3
  b.Insert(grid.CellAt({10.0, 150.0}, 8), OneRef(5, false));   // face 5
  SuperCovering sc = b.Build();
  EncodedCovering enc = Encode(sc);
  AdaptiveCellTrie trie(enc, {.bits_per_level = 8});
  EXPECT_EQ(FirstRefOf(trie.Probe(grid.CellAt({-10.0, -150.0}).id()))
                .polygon_id, 0u);
  EXPECT_EQ(FirstRefOf(trie.Probe(grid.CellAt({10.0, -90.0}).id()))
                .polygon_id, 1u);
  EXPECT_EQ(FirstRefOf(trie.Probe(grid.CellAt({10.0, 150.0}).id()))
                .polygon_id, 5u);
  EXPECT_EQ(trie.Probe(grid.CellAt({-10.0, 30.0}).id()), kSentinelEntry);
}

TEST(Trie, DepthBoundsMatchFanout) {
  // ACT4: ceil(60/8) = 8 node accesses max; ACT2: 15; ACT1: 30.
  Grid grid;
  Rng rng(5);
  SuperCoveringBuilder b;
  for (int k = 0; k < 300; ++k) {
    geo::LatLng p{rng.Uniform(-80, 80), rng.Uniform(-179, 179)};
    b.Insert(grid.CellAt(p, 20 + static_cast<int>(rng.UniformInt(11))),
             OneRef(1, true));
  }
  SuperCovering sc = b.Build();
  EncodedCovering enc = Encode(sc);
  struct Bound {
    int bits;
    int max_depth;
  };
  for (Bound bound : {Bound{2, 30}, Bound{4, 15}, Bound{8, 8}}) {
    AdaptiveCellTrie trie(enc, {.bits_per_level = bound.bits,
                                .use_root_prefix = false});
    EXPECT_LE(trie.stats().max_depth, bound.max_depth);
    for (int s = 0; s < 500; ++s) {
      geo::LatLng p{rng.Uniform(-85, 85), rng.Uniform(-179, 179)};
      int depth = 0;
      trie.ProbeCounting(grid.CellAt(p).id(), &depth);
      ASSERT_LE(depth, bound.max_depth);
    }
  }
}

TEST(Trie, StatsAreConsistent) {
  Grid grid;
  Rng rng(6);
  SuperCoveringBuilder b;
  for (int k = 0; k < 400; ++k) {
    geo::LatLng p{rng.Uniform(40.4, 41.0), rng.Uniform(-74.3, -73.7)};
    b.Insert(grid.CellAt(p, 10 + static_cast<int>(rng.UniformInt(10))),
             OneRef(static_cast<uint32_t>(k % 11), k % 2 == 0));
  }
  SuperCovering sc = b.Build();
  EncodedCovering enc = Encode(sc);
  AdaptiveCellTrie trie(enc, {.bits_per_level = 8});
  const ActStats& st = trie.stats();
  EXPECT_GT(st.node_count, 0u);
  EXPECT_EQ(st.memory_bytes, st.node_count * 256 * 8);
  EXPECT_GT(st.value_slots, 0u);
  EXPECT_GE(st.avg_value_depth, 1.0);
  EXPECT_LE(st.avg_value_depth, st.max_depth);
  // Occupancy fractions are valid probabilities.
  for (double occ : st.occupancy_by_depth) {
    EXPECT_GE(occ, 0.0);
    EXPECT_LE(occ, 1.0);
  }
  // Higher fanout => fewer, larger nodes.
  AdaptiveCellTrie narrow(enc, {.bits_per_level = 2});
  EXPECT_GT(narrow.stats().node_count, st.node_count);
}

TEST(Trie, EndToEndPipelineProbesMatchReference) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.08);  // ~25 polygons
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(ds.polygons, grid, opts);
  const SuperCovering& sc = index.covering();
  ASSERT_TRUE(sc.IsDisjoint());

  Rng rng(7);
  for (int s = 0; s < 4000; ++s) {
    geo::LatLng p{rng.Uniform(40.45, 40.95), rng.Uniform(-74.3, -73.65)};
    CellId leaf = grid.CellAt(p);
    ASSERT_EQ(DecodeRefs(index.trie().Probe(leaf.id()),
                         index.encoded().table),
              ReferenceRefs(sc, leaf));
  }
}

TEST(Trie, PrecisionBoundPipeline) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.04);
  BuildOptions opts;
  opts.threads = 1;
  opts.precision_bound_m = 100.0;
  PolygonIndex index = PolygonIndex::Build(ds.polygons, grid, opts);
  for (size_t i = 0; i < index.covering().size(); ++i) {
    if (HasCandidate(index.covering().refs(i))) {
      ASSERT_LE(grid.CellDiagonalMeters(index.covering().cell(i)), 100.0);
    }
  }
  EXPECT_GT(index.timings().refine_s, 0.0);
  EXPECT_GT(index.MemoryBytes(), 0u);
}

// ---------------------------------------------------------------------------

// The per-cell trie builder the ACT used before its sorted single-pass
// build, kept only as this file's oracle: every cell walks down from its
// face root, allocating each missing node on its own, and the stats come
// from a recursive walk over the finished tree.
class ReferenceTrie {
 public:
  ReferenceTrie(const EncodedCovering& enc, const ActOptions& opts)
      : bits_(opts.bits_per_level),
        fanout_(1 << opts.bits_per_level),
        mask_(static_cast<uint64_t>(fanout_ - 1)) {
    size_t n = enc.cells.size();
    size_t i = 0;
    while (i < n) {
      int f = enc.cells[i].first.face();
      size_t j = i;
      while (j < n && enc.cells[j].first.face() == f) ++j;
      Face& face = faces_[f];
      if (opts.use_root_prefix) {
        int len_first = 0, len_last = 0;
        uint64_t key_first = enc.cells[i].first.PathKey(&len_first);
        uint64_t key_last = enc.cells[j - 1].first.PathKey(&len_last);
        int cpl = (j - i == 1)
                      ? len_first
                      : util::CommonPrefixLength(key_first, key_last);
        face.prefix_bits = (cpl / bits_) * bits_;
        face.prefix =
            face.prefix_bits == 0 ? 0 : (key_first >> (64 - face.prefix_bits));
      }
      for (size_t k = i; k < j; ++k) {
        InsertCell(enc.cells[k].first, enc.cells[k].second, &face);
      }
      i = j;
    }
    ComputeStats();
  }

  TaggedEntry ProbeCounting(uint64_t leaf_cell_id, int* depth) const {
    *depth = 0;
    const Face& face = faces_[leaf_cell_id >> CellId::kPosBits];
    uint64_t key = (leaf_cell_id << CellId::kFaceBits) & ~uint64_t{15};
    int offset = face.prefix_bits;
    if (offset > 0 && (key >> (64 - offset)) != face.prefix) {
      return kSentinelEntry;
    }
    TaggedEntry entry = face.root;
    while (entry != kSentinelEntry && !IsValue(entry)) {
      ++*depth;
      uint64_t chunk = (key >> (64 - offset - bits_)) & mask_;
      entry = PointerOf(entry)[chunk];
      offset += bits_;
    }
    return entry;
  }

  ActStats stats;

 private:
  struct Face {
    TaggedEntry root = kSentinelEntry;
    uint64_t prefix = 0;
    int prefix_bits = 0;
  };

  TaggedEntry* NewNode() {
    auto node = std::make_unique<TaggedEntry[]>(fanout_);
    std::fill_n(node.get(), fanout_, kSentinelEntry);
    TaggedEntry* raw = node.get();
    arena_.push_back(std::move(node));
    return raw;
  }

  void InsertCell(const CellId& cell, TaggedEntry value, Face* face) {
    int key_len = 0;
    uint64_t key = cell.PathKey(&key_len);
    int consumed = face->prefix_bits;
    ASSERT_GE(key_len, consumed);
    if (key_len == consumed) {
      ASSERT_EQ(face->root, kSentinelEntry);
      face->root = value;
      return;
    }
    if (face->root == kSentinelEntry) face->root = MakePointer(NewNode());
    ASSERT_FALSE(IsValue(face->root));
    TaggedEntry* node = MutablePointerOf(face->root);
    while (key_len - consumed > bits_) {
      uint64_t chunk = (key >> (64 - consumed - bits_)) & mask_;
      TaggedEntry entry = node[chunk];
      if (entry == kSentinelEntry) {
        TaggedEntry* child = NewNode();
        node[chunk] = MakePointer(child);
        node = child;
      } else {
        ASSERT_FALSE(IsValue(entry));
        node = MutablePointerOf(entry);
      }
      consumed += bits_;
    }
    int r = key_len - consumed;
    uint64_t bits_r = (key >> (64 - consumed - r)) & ((uint64_t{1} << r) - 1);
    uint64_t base = bits_r << (bits_ - r);
    for (uint64_t s = base; s < base + (uint64_t{1} << (bits_ - r)); ++s) {
      ASSERT_EQ(node[s], kSentinelEntry);
      node[s] = value;
    }
  }

  void WalkStats(const TaggedEntry* node, int depth,
                 std::vector<uint64_t>* slots_by_depth,
                 std::vector<uint64_t>* used_by_depth) {
    if (static_cast<size_t>(depth) >= slots_by_depth->size()) {
      slots_by_depth->resize(depth + 1, 0);
      used_by_depth->resize(depth + 1, 0);
    }
    (*slots_by_depth)[depth] += fanout_;
    stats.max_depth = std::max(stats.max_depth, depth + 1);
    for (int s = 0; s < fanout_; ++s) {
      TaggedEntry e = node[s];
      if (e == kSentinelEntry) continue;
      (*used_by_depth)[depth] += 1;
      if (IsValue(e)) {
        stats.value_slots += 1;
        stats.avg_value_depth += depth + 1;
      } else {
        stats.pointer_slots += 1;
        WalkStats(PointerOf(e), depth + 1, slots_by_depth, used_by_depth);
      }
    }
  }

  void ComputeStats() {
    stats.node_count = arena_.size();
    stats.memory_bytes =
        arena_.size() * static_cast<uint64_t>(fanout_) * sizeof(TaggedEntry);
    std::vector<uint64_t> slots_by_depth, used_by_depth;
    for (const Face& face : faces_) {
      if (face.root == kSentinelEntry) continue;
      if (IsValue(face.root)) {
        stats.value_slots += 1;
        continue;
      }
      WalkStats(PointerOf(face.root), 0, &slots_by_depth, &used_by_depth);
    }
    if (stats.value_slots > 0) {
      stats.avg_value_depth /= static_cast<double>(stats.value_slots);
    }
    stats.occupancy_by_depth.resize(slots_by_depth.size());
    for (size_t d = 0; d < slots_by_depth.size(); ++d) {
      stats.occupancy_by_depth[d] =
          slots_by_depth[d] == 0
              ? 0
              : static_cast<double>(used_by_depth[d]) / slots_by_depth[d];
    }
  }

  int bits_;
  int fanout_;
  uint64_t mask_;
  Face faces_[CellId::kNumFaces];
  std::vector<std::unique_ptr<TaggedEntry[]>> arena_;
};

// Builds the trie both ways at 2/4/8 bits with and without the root prefix
// and asserts equal stats (exact, doubles included) and an identical probe
// result and depth at each cell's first and last leaf and at the leaves
// just outside it.
void ExpectTrieMatchesReference(const EncodedCovering& enc) {
  ASSERT_FALSE(enc.cells.empty());
  std::vector<uint64_t> probes;
  for (const auto& [cell, value] : enc.cells) {
    const uint64_t lo = cell.range_min().id(), hi = cell.range_max().id();
    for (uint64_t id : {lo, hi, lo - 2, hi + 2}) {
      // Skip ids past either end of the six faces (lo - 2 wraps around).
      if ((id >> CellId::kPosBits) < CellId::kNumFaces) probes.push_back(id);
    }
  }
  for (int bits : {2, 4, 8}) {
    for (bool root_prefix : {true, false}) {
      SCOPED_TRACE("bits " + std::to_string(bits) +
                   (root_prefix ? " root prefix" : " no root prefix"));
      const ActOptions opts{.bits_per_level = bits,
                            .use_root_prefix = root_prefix};
      AdaptiveCellTrie trie(enc, opts);
      ReferenceTrie want(enc, opts);
      const ActStats& got = trie.stats();
      EXPECT_EQ(got.node_count, want.stats.node_count);
      EXPECT_EQ(got.memory_bytes, want.stats.memory_bytes);
      EXPECT_EQ(got.value_slots, want.stats.value_slots);
      EXPECT_EQ(got.pointer_slots, want.stats.pointer_slots);
      EXPECT_EQ(got.avg_value_depth, want.stats.avg_value_depth);
      EXPECT_EQ(got.max_depth, want.stats.max_depth);
      EXPECT_EQ(got.occupancy_by_depth, want.stats.occupancy_by_depth);
      for (uint64_t id : probes) {
        int depth = 0, want_depth = 0;
        const TaggedEntry e = trie.ProbeCounting(id, &depth);
        ASSERT_EQ(e, want.ProbeCounting(id, &want_depth)) << "leaf " << id;
        ASSERT_EQ(depth, want_depth) << "leaf " << id;
        ASSERT_EQ(trie.Probe(id), e) << "leaf " << id;
      }
    }
  }
}

EncodedCovering DatasetEncoding(const std::vector<geom::Polygon>& polygons) {
  BuildOptions opts;
  opts.threads = 1;
  return PolygonIndex::Build(polygons, Grid(), opts).encoded();
}

TEST(TrieBuild, MatchesReferenceOnCensus) {
  ExpectTrieMatchesReference(DatasetEncoding(wl::Census(0.1).polygons));
}

TEST(TrieBuild, MatchesReferenceOnNeighborhoods) {
  ExpectTrieMatchesReference(DatasetEncoding(wl::Neighborhoods().polygons));
}

TEST(TrieBuild, MatchesReferenceOnRandomCoverings) {
  // Random cells at every level on all six faces, clustered in one city
  // and spread over the globe, made disjoint by the builder; one seed adds
  // face-level cells so some faces hold a single value at the root.
  Grid grid;
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    SuperCoveringBuilder b;
    for (int k = 0; k < 1000; ++k) {
      const geo::LatLng p =
          k % 2 == 0
              ? geo::LatLng{rng.Uniform(40.6, 40.8), rng.Uniform(-74.1, -73.9)}
              : geo::LatLng{rng.Uniform(-85, 85), rng.Uniform(-179, 179)};
      b.Insert(grid.CellAt(p, static_cast<int>(rng.UniformInt(31))),
               OneRef(static_cast<uint32_t>(rng.UniformInt(40)),
                      rng.UniformInt(2) == 0));
    }
    if (seed == 3) {
      for (int f : {1, 4}) b.Insert(CellId::FromFace(f), OneRef(7, true));
    }
    SuperCovering sc = b.Build();
    ASSERT_TRUE(sc.IsDisjoint());
    ExpectTrieMatchesReference(Encode(sc));
  }
}

}  // namespace
}  // namespace actjoin::act
