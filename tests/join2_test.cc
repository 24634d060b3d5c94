// Tests for the dual-trie crossmatch (src/join2/): the synchronized
// descent must agree byte-for-byte with two independent oracles — the
// index-free brute force and the R-tree × R-tree baseline — on random and
// adversarial fixtures (shared edges, containment nests, empty overlap),
// in both modes, at every thread width; and the dataset-level matcher must
// enforce the catalog's typed-rejection contract while pinning consistent
// epoch pairs across concurrent mutations, reusing each snapshot's probe
// surface from its view cache without ever serving a stale one. Suites are
// named Join2* / CrossMatch* so the TSan CI job's filter runs the
// concurrent ones under ThreadSanitizer.
//
// Seeding convention (full rationale in util_test.cc): random data comes
// only from the workload factories with explicit literal seeds.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "act/join.h"
#include "baselines/rtree.h"
#include "geo/grid.h"
#include "join2/cross_match.h"
#include "join2/dataset_cross_matcher.h"
#include "service/join_service.h"
#include "service/sharded_index.h"
#include "util/metrics.h"
#include "workloads/datasets.h"
#include "workloads/polygon_gen.h"

namespace actjoin::join2 {
namespace {

using geo::Grid;
using service::JoinService;
using service::ServiceOptions;
using service::ShardedIndex;

using Pairs = std::vector<std::pair<uint32_t, uint32_t>>;

service::ShardingOptions Sharding(int num_shards) {
  service::ShardingOptions opts;
  opts.num_shards = num_shards;
  return opts;
}

std::shared_ptr<const ShardedIndex> BuildShared(
    const std::vector<geom::Polygon>& polygons, const Grid& grid,
    int num_shards) {
  return std::make_shared<const ShardedIndex>(
      ShardedIndex::Build(polygons, grid, Sharding(num_shards)));
}

/// A jittered nx*ny partition of the NYC extent. dilation 0 keeps the
/// polygons tiling exactly (every neighboring pair shares a full edge —
/// the adversarial fixture for boundary predicates).
std::vector<geom::Polygon> Partition(int nx, int ny, uint64_t seed,
                                     double dilation = 0) {
  return wl::JitteredPartition({.mbr = wl::NycMbr(),
                                .nx = nx,
                                .ny = ny,
                                .edge_depth = 2,
                                .seed = seed,
                                .overlap_dilation = dilation});
}

/// Axis-aligned square ring centered in the NYC extent, side 2 * half.
geom::Polygon CenteredSquare(double half) {
  geom::Rect mbr = wl::NycMbr();
  const double cx = (mbr.lo.x + mbr.hi.x) / 2;
  const double cy = (mbr.lo.y + mbr.hi.y) / 2;
  return geom::Polygon({{cx - half, cy - half},
                        {cx + half, cy - half},
                        {cx + half, cy + half},
                        {cx - half, cy + half}});
}

/// The ordering contract shared by every pair producer in the repo.
template <typename PairVec>
void ExpectSortedUnique(const PairVec& pairs) {
  EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
  EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end());
}

/// Everything in CrossMatchStats except the wall clock.
void ExpectStatsEqual(const CrossMatchStats& got, const CrossMatchStats& want) {
  EXPECT_EQ(got.candidate_pairs, want.candidate_pairs);
  EXPECT_EQ(got.refined_pairs, want.refined_pairs);
  EXPECT_EQ(got.pruned_pairs, want.pruned_pairs);
  EXPECT_EQ(got.result_pairs, want.result_pairs);
  EXPECT_EQ(got.max_depth, want.max_depth);
}

/// Runs the dual-trie crossmatch at several widths plus the two oracles
/// and asserts all outputs are byte-identical (and stats width-invariant).
void ExpectAllImplementationsAgree(const std::vector<geom::Polygon>& pa,
                                   const std::vector<geom::Polygon>& pb,
                                   CrossMatchMode mode, int shards_a = 3,
                                   int shards_b = 5) {
  Grid grid;
  ShardedIndex ia = ShardedIndex::Build(pa, grid, Sharding(shards_a));
  ShardedIndex ib = ShardedIndex::Build(pb, grid, Sharding(shards_b));

  Pairs want = BruteForceCrossMatch(pa, pb, mode);
  ExpectSortedUnique(want);

  baselines::RTree ra = baselines::BuildPolygonRTree(pa);
  baselines::RTree rb = baselines::BuildPolygonRTree(pb);
  Pairs rtree = baselines::RTreeCrossMatch(
      ra, pa, rb, pb, mode == CrossMatchMode::kContains);
  ExpectSortedUnique(rtree);
  EXPECT_EQ(rtree, want);

  CrossMatchStats base_stats;
  bool have_base = false;
  for (int width : {1, 2, 4, 8}) {
    CrossMatchStats stats;
    Pairs got = CrossMatchIndexes(ia, ib, {.mode = mode, .threads = width},
                                  nullptr, &stats);
    ExpectSortedUnique(got);
    EXPECT_EQ(got, want) << "mode=" << ToString(mode) << " width=" << width;
    EXPECT_EQ(stats.result_pairs, want.size());
    if (!have_base) {
      base_stats = stats;
      have_base = true;
    } else {
      ExpectStatsEqual(stats, base_stats);
    }
  }
}

// --- Library-level crossmatch ----------------------------------------------

TEST(Join2CrossMatch, RandomPartitionsIntersects) {
  ExpectAllImplementationsAgree(Partition(6, 5, 101), Partition(4, 7, 202),
                                CrossMatchMode::kIntersects);
}

TEST(Join2CrossMatch, RandomPartitionsContains) {
  // Dilated cells of a coarse partition against a finer one: containment
  // actually occurs (a dilated coarse cell covers interior fine cells).
  ExpectAllImplementationsAgree(Partition(3, 3, 303, 0.4),
                                Partition(9, 9, 404),
                                CrossMatchMode::kContains);
}

TEST(Join2CrossMatch, SharedEdgeSelfJoin) {
  // A joined with itself: every polygon shares a full (jittered) edge
  // chain with each grid neighbor and is identical to itself — the
  // boundary-heavy adversarial case for both predicates.
  std::vector<geom::Polygon> pa = Partition(5, 4, 505);
  ExpectAllImplementationsAgree(pa, pa, CrossMatchMode::kIntersects);
  ExpectAllImplementationsAgree(pa, pa, CrossMatchMode::kContains);

  // Self-join sanity: the diagonal intersects and covers itself.
  Grid grid;
  ShardedIndex ia = ShardedIndex::Build(pa, grid, Sharding(2));
  for (CrossMatchMode mode :
       {CrossMatchMode::kIntersects, CrossMatchMode::kContains}) {
    Pairs got = CrossMatchIndexes(ia, ia, {.mode = mode});
    for (uint32_t i = 0; i < pa.size(); ++i) {
      EXPECT_TRUE(std::binary_search(got.begin(), got.end(),
                                     std::make_pair(i, i)))
          << "diagonal pair missing in mode " << ToString(mode);
    }
  }
}

TEST(Join2CrossMatch, ContainmentNest) {
  // Concentric squares: a_i covers b_j iff half_a(i) >= half_b(j). The
  // two sides interleave so both strict nesting and touching-containment
  // (equal halves) occur.
  std::vector<geom::Polygon> pa, pb;
  std::vector<double> halves_a = {0.05, 0.11, 0.17};
  std::vector<double> halves_b = {0.02, 0.05, 0.08, 0.14};
  for (double h : halves_a) pa.push_back(CenteredSquare(h));
  for (double h : halves_b) pb.push_back(CenteredSquare(h));

  ExpectAllImplementationsAgree(pa, pb, CrossMatchMode::kContains, 2, 3);
  ExpectAllImplementationsAgree(pa, pb, CrossMatchMode::kIntersects, 2, 3);

  Grid grid;
  ShardedIndex ia = ShardedIndex::Build(pa, grid, Sharding(2));
  ShardedIndex ib = ShardedIndex::Build(pb, grid, Sharding(2));
  Pairs covers =
      CrossMatchIndexes(ia, ib, {.mode = CrossMatchMode::kContains});
  Pairs want;
  for (uint32_t i = 0; i < halves_a.size(); ++i) {
    for (uint32_t j = 0; j < halves_b.size(); ++j) {
      if (halves_a[i] >= halves_b[j]) want.emplace_back(i, j);
    }
  }
  EXPECT_EQ(covers, want);
  // All squares are concentric, so every pair intersects.
  EXPECT_EQ(CrossMatchIndexes(ia, ib, {.mode = CrossMatchMode::kIntersects})
                .size(),
            pa.size() * pb.size());
}

TEST(Join2CrossMatch, EmptyOverlapPrunesEverything) {
  // Two dense partitions of disjoint extents: the top-level span pair is
  // range-disjoint, so the descent prunes without emitting any candidate
  // or running any refinement.
  geom::Rect left = geom::Rect::Of(-10, -10, -1, 10);
  geom::Rect right = geom::Rect::Of(1, -10, 10, 10);
  std::vector<geom::Polygon> pa = wl::JitteredPartition(
      {.mbr = left, .nx = 4, .ny = 4, .edge_depth = 1, .seed = 606});
  std::vector<geom::Polygon> pb = wl::JitteredPartition(
      {.mbr = right, .nx = 4, .ny = 4, .edge_depth = 1, .seed = 707});

  Grid grid;
  ShardedIndex ia = ShardedIndex::Build(pa, grid, Sharding(3));
  ShardedIndex ib = ShardedIndex::Build(pb, grid, Sharding(3));
  for (CrossMatchMode mode :
       {CrossMatchMode::kIntersects, CrossMatchMode::kContains}) {
    CrossMatchStats stats;
    Pairs got = CrossMatchIndexes(ia, ib, {.mode = mode}, nullptr, &stats);
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(got, BruteForceCrossMatch(pa, pb, mode));
    EXPECT_EQ(stats.candidate_pairs, 0u);
    EXPECT_EQ(stats.refined_pairs, 0u);
    EXPECT_GT(stats.pruned_pairs, 0u);
  }
}

TEST(Join2CrossMatch, SharedExternalPoolMatchesTransient) {
  std::vector<geom::Polygon> pa = Partition(5, 5, 808);
  std::vector<geom::Polygon> pb = Partition(6, 4, 909);
  Grid grid;
  ShardedIndex ia = ShardedIndex::Build(pa, grid, Sharding(4));
  ShardedIndex ib = ShardedIndex::Build(pb, grid, Sharding(4));

  CrossMatchStats want_stats;
  Pairs want = CrossMatchIndexes(
      ia, ib, {.mode = CrossMatchMode::kIntersects, .threads = 1}, nullptr,
      &want_stats);

  util::WorkStealingPool pool(3);
  CrossMatchStats got_stats;
  Pairs got = CrossMatchIndexes(ia, ib, {.mode = CrossMatchMode::kIntersects},
                                &pool, &got_stats);
  EXPECT_EQ(got, want);
  ExpectStatsEqual(got_stats, want_stats);
}

TEST(Join2CrossMatch, IntervalViewIsSortedAndDisjoint) {
  std::vector<geom::Polygon> pa = Partition(6, 6, 111, 0.3);
  Grid grid;
  for (int shards : {1, 3, 8}) {
    ShardedIndex ia = ShardedIndex::Build(pa, grid, Sharding(shards));
    IntervalView view = IntervalView::FromIndex(ia);
    ASSERT_GT(view.size(), 0u);
    for (size_t i = 0; i < view.size(); ++i) {
      const IntervalView::Interval& iv = view.interval(i);
      EXPECT_LE(iv.lo, iv.hi);
      EXPECT_FALSE(view.refs(iv).empty());
      if (i > 0) {
        EXPECT_LT(view.interval(i - 1).hi, iv.lo);
      }
    }
    for (uint32_t gid = 0; gid < pa.size(); ++gid) {
      EXPECT_NE(view.polygon(gid), nullptr);
    }
  }
}

TEST(Join2CrossMatch, DatasetStraddlingAShardBoundaryMatchesOracle) {
  // The NYC fixtures above sit inside one shard at every shard count, so
  // this one is laid over the cell around the first leaf of shard 1 of a
  // 3-shard index: its polygons are indexed by both shards, and FromIndex
  // must stitch their clipped halves together in order.
  constexpr int kShards = 3;
  Grid grid;
  const ShardedIndex probe =
      ShardedIndex::Build(Partition(2, 2, 5), grid, Sharding(kShards));
  const uint64_t boundary = probe.ShardRange(1).first;
  const geo::LatLngRect rect =
      grid.CellRect(geo::CellId(boundary | 1).parent(8));
  auto partition = [&](uint64_t seed) {
    return wl::JitteredPartition(
        {.mbr = geom::Rect::Of(rect.lng_lo, rect.lat_lo, rect.lng_hi,
                               rect.lat_hi),
         .nx = 6,
         .ny = 6,
         .edge_depth = 2,
         .seed = seed,
         .overlap_dilation = 0.3});
  };
  const std::vector<geom::Polygon> pa = partition(211);
  const std::vector<geom::Polygon> pb = partition(212);
  const ShardedIndex ia = ShardedIndex::Build(pa, grid, Sharding(kShards));
  const ShardedIndex ib = ShardedIndex::Build(pb, grid, Sharding(kShards));
  for (const ShardedIndex* index : {&ia, &ib}) {
    int non_empty = 0;
    for (int s = 0; s < index->num_shards(); ++s) {
      non_empty += index->shard_index(s) != nullptr ? 1 : 0;
    }
    EXPECT_GE(non_empty, 2);
    IntervalView view = IntervalView::FromIndex(*index, 0);
    for (size_t i = 1; i < view.size(); ++i) {
      EXPECT_LT(view.interval(i - 1).hi, view.interval(i).lo);
    }
  }
  for (CrossMatchMode mode :
       {CrossMatchMode::kIntersects, CrossMatchMode::kContains}) {
    EXPECT_EQ(CrossMatchIndexes(ia, ib, {.mode = mode, .threads = 2}),
              BruteForceCrossMatch(pa, pb, mode))
        << ToString(mode);
  }
}

// --- The shared ordering contract (see act::ExecuteJoinPairs) --------------

TEST(Join2OrderingContract, AllPairProducersSortedUnique) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.06);
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 2000, grid, 42);

  // Point-join producers: act::ExecuteJoinPairs (via PolygonIndex) and
  // the routed ShardedIndex::JoinPairs promise sorted unique pairs.
  act::PolygonIndex single = act::PolygonIndex::Build(ds.polygons, grid, {});
  auto single_pairs =
      single.JoinPairs(pts.AsJoinInput(), act::JoinMode::kExact);
  ExpectSortedUnique(single_pairs);

  ShardedIndex sharded =
      ShardedIndex::Build(ds.polygons, grid, Sharding(4));
  auto sharded_pairs =
      sharded.JoinPairs(pts.AsJoinInput(), act::JoinMode::kExact);
  ExpectSortedUnique(sharded_pairs);
  EXPECT_EQ(sharded_pairs, single_pairs);

  // Pair-join producers reuse the same contract — that is what makes the
  // three implementations byte-comparable in the tests above.
  std::vector<geom::Polygon> pb = Partition(4, 4, 212);
  ShardedIndex ib = ShardedIndex::Build(pb, grid, Sharding(2));
  ExpectSortedUnique(
      CrossMatchIndexes(sharded, ib, {.mode = CrossMatchMode::kIntersects}));
  ExpectSortedUnique(
      BruteForceCrossMatch(ds.polygons, pb, CrossMatchMode::kIntersects));
  baselines::RTree ra = baselines::BuildPolygonRTree(ds.polygons);
  baselines::RTree rb = baselines::BuildPolygonRTree(pb);
  ExpectSortedUnique(ra.CrossMatchCandidates(rb));
  ExpectSortedUnique(baselines::RTreeCrossMatch(ra, ds.polygons, rb, pb));
}

// --- Dataset-level matcher -------------------------------------------------

struct TwoDatasetService {
  std::vector<geom::Polygon> pa, pb;
  std::unique_ptr<JoinService> service;
  uint16_t id_a = 0, id_b = 0;

  explicit TwoDatasetService(const ServiceOptions& opts = {}) {
    pa = Partition(5, 4, 131);
    pb = Partition(3, 6, 242);
    Grid grid;
    service = std::make_unique<JoinService>(BuildShared(pa, grid, 3), opts);
    id_a = 0;
    // ASSERT_* cannot run in a constructor; Add only fails on id-space
    // exhaustion, which a two-dataset fixture cannot hit.
    id_b = service->catalog().Add("b", BuildShared(pb, grid, 2)).value();
  }
};

TEST(Join2Matcher, RunMatchesLibraryAndOracle) {
  TwoDatasetService fx;
  DatasetCrossMatcher matcher(fx.service.get());
  for (CrossMatchMode mode :
       {CrossMatchMode::kIntersects, CrossMatchMode::kContains}) {
    CrossMatchOutcome out = matcher.Run(
        {.dataset_a = fx.id_a, .dataset_b = fx.id_b, .mode = mode});
    ASSERT_EQ(out.status, CrossMatchStatus::kOk);
    EXPECT_EQ(out.pairs, BruteForceCrossMatch(fx.pa, fx.pb, mode));
    EXPECT_GT(out.epoch_a, 0u);
    EXPECT_GT(out.epoch_b, 0u);
    EXPECT_EQ(out.stats.result_pairs, out.pairs.size());
  }
}

TEST(Join2Matcher, TypedRejectionsNameTheOffendingSide) {
  TwoDatasetService fx;
  DatasetCrossMatcher matcher(fx.service.get());

  // Unknown ids, either side.
  CrossMatchOutcome out = matcher.Run({.dataset_a = 99, .dataset_b = fx.id_b});
  EXPECT_EQ(out.status, CrossMatchStatus::kUnknownDataset);
  EXPECT_EQ(out.offending_dataset, 99);
  out = matcher.Run({.dataset_a = fx.id_a, .dataset_b = 99});
  EXPECT_EQ(out.status, CrossMatchStatus::kUnknownDataset);
  EXPECT_EQ(out.offending_dataset, 99);

  // Offline reservation: assigned but never published.
  auto offline = fx.service->catalog().AddOffline("offline");
  ASSERT_TRUE(offline.has_value());
  out = matcher.Run({.dataset_a = fx.id_a, .dataset_b = *offline});
  EXPECT_EQ(out.status, CrossMatchStatus::kUnknownDataset);
  EXPECT_EQ(out.offending_dataset, *offline);

  // Tombstoned, either side.
  ASSERT_EQ(fx.service->DropDataset(fx.id_b).status,
            service::MutationStatus::kApplied);
  out = matcher.Run({.dataset_a = fx.id_a, .dataset_b = fx.id_b});
  EXPECT_EQ(out.status, CrossMatchStatus::kDatasetDropped);
  EXPECT_EQ(out.offending_dataset, fx.id_b);
  out = matcher.Run({.dataset_a = fx.id_b, .dataset_b = fx.id_a});
  EXPECT_EQ(out.status, CrossMatchStatus::kDatasetDropped);
  EXPECT_EQ(out.offending_dataset, fx.id_b);

  // A self-join of a live dataset still works after all that.
  out = matcher.Run({.dataset_a = fx.id_a, .dataset_b = fx.id_a});
  EXPECT_EQ(out.status, CrossMatchStatus::kOk);
}

TEST(Join2Matcher, AsyncMatchesRunAndFeedsObservability) {
  TwoDatasetService fx;
  DatasetCrossMatcher matcher(fx.service.get());
  CrossMatchRequest req{.dataset_a = fx.id_a,
                        .dataset_b = fx.id_b,
                        .mode = CrossMatchMode::kIntersects,
                        .request_id = 7777};
  CrossMatchOutcome want = matcher.Run(req);
  ASSERT_EQ(want.status, CrossMatchStatus::kOk);

  std::promise<CrossMatchOutcome> promise;
  std::future<CrossMatchOutcome> future = promise.get_future();
  ASSERT_EQ(matcher.TryCrossMatchAsync(
                req, [&](CrossMatchOutcome out) {
                  promise.set_value(std::move(out));
                }),
            service::SubmitStatus::kAccepted);
  CrossMatchOutcome got = future.get();
  ASSERT_EQ(got.status, CrossMatchStatus::kOk);
  EXPECT_EQ(got.pairs, want.pairs);
  ExpectStatsEqual(got.stats, want.stats);
  EXPECT_EQ(got.epoch_a, want.epoch_a);
  EXPECT_EQ(got.epoch_b, want.epoch_b);

  // Unknown a-side is rejected at the door (done dropped unrun).
  EXPECT_EQ(matcher.TryCrossMatchAsync({.dataset_a = 99},
                                       [](CrossMatchOutcome) { FAIL(); }),
            service::SubmitStatus::kUnknownDataset);

  // Metrics counted both executions; the slow-query log saw the request.
  util::MetricsRegistry* metrics = fx.service->metrics();
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->GetCounter("crossmatch_requests_total", "")->value(),
            2u);
  EXPECT_EQ(metrics->GetCounter("crossmatch_result_pairs_total", "")->value(),
            2 * want.pairs.size());
  bool logged = false;
  for (const auto& q : fx.service->slow_queries().TopK()) {
    logged |= q.request_id == 7777;
  }
  EXPECT_TRUE(logged);
}

TEST(Join2Matcher, MutationsChangeTheJoinedEpoch) {
  TwoDatasetService fx;
  DatasetCrossMatcher matcher(fx.service.get());
  CrossMatchRequest req{.dataset_a = fx.id_a, .dataset_b = fx.id_b};
  CrossMatchOutcome before = matcher.Run(req);
  ASSERT_EQ(before.status, CrossMatchStatus::kOk);

  // Grow the b-side: the next crossmatch pins the new epoch and matches
  // the oracle over the extended polygon set.
  std::vector<geom::Polygon> added = {CenteredSquare(0.07)};
  auto mut = fx.service->AddPolygons(fx.id_b, added);
  ASSERT_EQ(mut.status, service::MutationStatus::kApplied);
  std::vector<geom::Polygon> pb2 = fx.pb;
  pb2.push_back(added[0]);

  CrossMatchOutcome after = matcher.Run(req);
  ASSERT_EQ(after.status, CrossMatchStatus::kOk);
  EXPECT_GT(after.epoch_b, before.epoch_b);
  EXPECT_EQ(after.epoch_a, before.epoch_a);
  EXPECT_EQ(after.pairs, BruteForceCrossMatch(
                             fx.pa, pb2, CrossMatchMode::kIntersects));

  // Shrink the a-side: removed ids vanish from the output.
  ASSERT_EQ(fx.service->RemovePolygons(fx.id_a, {0, 3}).status,
            service::MutationStatus::kApplied);
  std::vector<uint32_t> skip = {0, 3};
  CrossMatchOutcome removed = matcher.Run(req);
  ASSERT_EQ(removed.status, CrossMatchStatus::kOk);
  EXPECT_EQ(removed.pairs,
            BruteForceCrossMatch(fx.pa, pb2, CrossMatchMode::kIntersects,
                                 skip, {}));
}

// --- Concurrency (runs under TSan in CI) -----------------------------------

TEST(Join2Concurrency, CrossMatchesRaceWithMutations) {
  TwoDatasetService fx;
  DatasetCrossMatcher matcher(fx.service.get());
  CrossMatchRequest req{.dataset_a = fx.id_a, .dataset_b = fx.id_b};

  // Mutator: grow b, shrink a, concurrently with crossmatches. Every
  // concurrent result must be internally well-formed (sorted unique) —
  // each pins one consistent epoch pair.
  std::atomic<bool> stop{false};
  std::atomic<bool> malformed{false};
  std::vector<std::thread> joiners;
  for (int t = 0; t < 3; ++t) {
    joiners.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        CrossMatchOutcome out = matcher.Run(req);
        if (out.status != CrossMatchStatus::kOk) continue;
        if (!std::is_sorted(out.pairs.begin(), out.pairs.end()) ||
            std::adjacent_find(out.pairs.begin(), out.pairs.end()) !=
                out.pairs.end()) {
          malformed.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  std::vector<geom::Polygon> pb2 = fx.pb;
  for (int i = 0; i < 6; ++i) {
    std::vector<geom::Polygon> add = {
        CenteredSquare(0.02 + 0.01 * static_cast<double>(i))};
    ASSERT_EQ(fx.service->AddPolygons(fx.id_b, add).status,
              service::MutationStatus::kApplied);
    pb2.push_back(add[0]);
    ASSERT_EQ(fx.service->RemovePolygons(fx.id_a, {static_cast<uint32_t>(i)})
                  .status,
              service::MutationStatus::kApplied);
  }
  stop.store(true);
  for (auto& th : joiners) th.join();
  EXPECT_FALSE(malformed.load());

  // Quiesced: the final result matches the oracle over the final state.
  std::vector<uint32_t> skip = {0, 1, 2, 3, 4, 5};
  CrossMatchOutcome final_out = matcher.Run(req);
  ASSERT_EQ(final_out.status, CrossMatchStatus::kOk);
  EXPECT_EQ(final_out.pairs,
            BruteForceCrossMatch(fx.pa, pb2, CrossMatchMode::kIntersects,
                                 skip, {}));
}

// --- Per-snapshot view cache -------------------------------------------------

/// Reads the matcher's view-cache instruments from the service registry.
struct ViewCacheCounts {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t builds = 0;  // crossmatch_view_build_us sample count

  static ViewCacheCounts Of(JoinService& service) {
    util::MetricsRegistry* m = service.metrics();
    return {
        m->GetCounter("crossmatch_view_cache_hits_total", "")->value(),
        m->GetCounter("crossmatch_view_cache_misses_total", "")->value(),
        m->GetHistogram("crossmatch_view_build_us", "")->Snapshot().count()};
  }
};

TEST(CrossMatchViewCache, RepeatedJoinsOnUnchangedEpochsHit) {
  TwoDatasetService fx;
  DatasetCrossMatcher matcher(fx.service.get());
  ASSERT_NE(fx.service->metrics(), nullptr);
  int runs = 0;
  for (CrossMatchMode mode :
       {CrossMatchMode::kIntersects, CrossMatchMode::kContains}) {
    const Pairs want = BruteForceCrossMatch(fx.pa, fx.pb, mode);
    CrossMatchOutcome first;
    for (int i = 0; i < 3; ++i, ++runs) {
      CrossMatchOutcome out = matcher.Run(
          {.dataset_a = fx.id_a, .dataset_b = fx.id_b, .mode = mode});
      ASSERT_EQ(out.status, CrossMatchStatus::kOk);
      EXPECT_EQ(out.pairs, want) << ToString(mode) << " run " << i;
      if (i == 0) {
        first = std::move(out);
        continue;
      }
      EXPECT_EQ(out.epoch_a, first.epoch_a);
      EXPECT_EQ(out.epoch_b, first.epoch_b);
      ExpectStatsEqual(out.stats, first.stats);
    }
  }
  // Only the first join built views, one per side; the mode is not part
  // of the key, so every later side — either mode — was a hit.
  ViewCacheCounts counts = ViewCacheCounts::Of(*fx.service);
  EXPECT_EQ(counts.misses, 2u);
  EXPECT_EQ(counts.builds, 2u);
  EXPECT_EQ(counts.hits, 2u * static_cast<uint64_t>(runs) - 2u);

  // A self-join shares one slot: the a-side lookup is the b-side's hit.
  CrossMatchOutcome self = matcher.Run(
      {.dataset_a = fx.id_b, .dataset_b = fx.id_b});
  ASSERT_EQ(self.status, CrossMatchStatus::kOk);
  EXPECT_EQ(self.pairs, BruteForceCrossMatch(fx.pb, fx.pb,
                                             CrossMatchMode::kIntersects));
  EXPECT_EQ(ViewCacheCounts::Of(*fx.service).misses, 2u);
}

TEST(CrossMatchViewCache, EachPublishMissesOnceAndMatchesItsEpoch) {
  TwoDatasetService fx;
  DatasetCrossMatcher matcher(fx.service.get());
  ASSERT_NE(fx.service->metrics(), nullptr);
  CrossMatchRequest req{.dataset_a = fx.id_a, .dataset_b = fx.id_b};
  ViewCacheCounts last = ViewCacheCounts::Of(*fx.service);
  // Runs the crossmatch and checks how many sides missed since the last
  // call (the rest of the two sides hit).
  auto run = [&](uint64_t want_misses) {
    CrossMatchOutcome out = matcher.Run(req);
    ViewCacheCounts now = ViewCacheCounts::Of(*fx.service);
    EXPECT_EQ(now.misses - last.misses, want_misses);
    EXPECT_EQ(now.hits - last.hits, 2 - want_misses);
    EXPECT_EQ(now.builds - last.builds, want_misses);
    last = now;
    return out;
  };
  CrossMatchOutcome base = run(2);
  ASSERT_EQ(base.status, CrossMatchStatus::kOk);

  // ADD_POLYGONS on b: the b-side misses once, then hits again. An
  // in-flight request still pins the old snapshot, so the cached view of
  // it stays reachable — and must still not be served for the new one.
  service::ServiceCatalog::Snapshot in_flight =
      fx.service->catalog().Find(fx.id_b)->Acquire();
  std::vector<geom::Polygon> added = {CenteredSquare(0.07)};
  service::MutationResult add = fx.service->AddPolygons(fx.id_b, added);
  ASSERT_EQ(add.status, service::MutationStatus::kApplied);
  std::vector<geom::Polygon> pb2 = fx.pb;
  pb2.push_back(added[0]);
  const Pairs want_added =
      BruteForceCrossMatch(fx.pa, pb2, CrossMatchMode::kIntersects);
  CrossMatchOutcome out = run(1);
  ASSERT_EQ(out.status, CrossMatchStatus::kOk);
  EXPECT_EQ(out.epoch_a, base.epoch_a);
  EXPECT_EQ(out.epoch_b, add.epoch);
  EXPECT_EQ(out.pairs, want_added);
  out = run(0);
  EXPECT_EQ(out.epoch_b, add.epoch);
  EXPECT_EQ(out.pairs, want_added);
  in_flight.reset();

  // REMOVE_POLYGONS on a: the a-side misses once.
  service::MutationResult remove = fx.service->RemovePolygons(fx.id_a, {0, 3});
  ASSERT_EQ(remove.status, service::MutationStatus::kApplied);
  const std::vector<uint32_t> skip = {0, 3};
  out = run(1);
  ASSERT_EQ(out.status, CrossMatchStatus::kOk);
  EXPECT_EQ(out.epoch_a, remove.epoch);
  EXPECT_EQ(out.pairs, BruteForceCrossMatch(
                           fx.pa, pb2, CrossMatchMode::kIntersects, skip, {}));

  // DROP_DATASET on b rejects without touching the cache; a full publish
  // resurrects it with a new polygon set, which the next join misses on.
  ASSERT_EQ(fx.service->DropDataset(fx.id_b).status,
            service::MutationStatus::kApplied);
  EXPECT_EQ(matcher.Run(req).status, CrossMatchStatus::kDatasetDropped);
  EXPECT_EQ(ViewCacheCounts::Of(*fx.service).misses, last.misses);
  const std::vector<geom::Polygon> pc = Partition(4, 4, 353);
  const uint64_t republished =
      fx.service->SwapIndex(fx.id_b, BuildShared(pc, Grid(), 2));
  out = run(1);
  ASSERT_EQ(out.status, CrossMatchStatus::kOk);
  EXPECT_EQ(out.epoch_b, republished);
  EXPECT_EQ(out.pairs, BruteForceCrossMatch(
                           fx.pa, pc, CrossMatchMode::kIntersects, skip, {}));
  out = run(0);
  EXPECT_EQ(out.epoch_b, republished);
}

TEST(CrossMatchViewCache, KeepsNoRetiredSnapshotAlive) {
  TwoDatasetService fx;
  DatasetCrossMatcher matcher(fx.service.get());
  std::weak_ptr<const ShardedIndex> retired;
  uint64_t pinned_epoch = 0;
  {
    service::ServiceCatalog::Snapshot pinned =
        fx.service->catalog().Find(fx.id_b)->Acquire(&pinned_epoch);
    retired = pinned;
    // The crossmatch runs on — and caches a view of — this very snapshot.
    CrossMatchOutcome out =
        matcher.Run({.dataset_a = fx.id_a, .dataset_b = fx.id_b});
    ASSERT_EQ(out.status, CrossMatchStatus::kOk);
    ASSERT_EQ(out.epoch_b, pinned_epoch);
  }
  EXPECT_FALSE(retired.expired());  // still the published snapshot

  std::vector<geom::Polygon> added = {CenteredSquare(0.05)};
  ASSERT_EQ(fx.service->AddPolygons(fx.id_b, added).status,
            service::MutationStatus::kApplied);
  // Published over and no caller holds it: only the cache's weak_ptr is
  // left, which must not keep it alive.
  EXPECT_TRUE(retired.expired());

  // Dropping the dataset retires the snapshot the cache last saw, too.
  CrossMatchOutcome out =
      matcher.Run({.dataset_a = fx.id_a, .dataset_b = fx.id_b});
  ASSERT_EQ(out.status, CrossMatchStatus::kOk);
  retired = fx.service->catalog().Find(fx.id_b)->Acquire();
  ASSERT_EQ(fx.service->DropDataset(fx.id_b).status,
            service::MutationStatus::kApplied);
  EXPECT_TRUE(retired.expired());
}

TEST(CrossMatchViewCache, ConcurrentDeltasStayOracleExact) {
  TwoDatasetService fx;
  DatasetCrossMatcher matcher(fx.service.get());
  auto mode_of = [](size_t t) {
    return t % 2 == 0 ? CrossMatchMode::kIntersects : CrossMatchMode::kContains;
  };

  // The polygon set behind every epoch each side publishes: a-side
  // epochs map to the ids removed so far, b-side epochs to the polygons.
  std::map<uint64_t, std::vector<uint32_t>> skip_at;
  std::map<uint64_t, std::vector<geom::Polygon>> pb_at;
  skip_at[fx.service->catalog().Find(fx.id_a)->epoch()] = {};
  pb_at[fx.service->catalog().Find(fx.id_b)->epoch()] = fx.pb;

  // Joiners record every outcome; assertions run on the main thread.
  constexpr size_t kJoiners = 3;
  std::atomic<bool> stop{false};
  std::array<std::atomic<uint64_t>, kJoiners> completed{};
  std::vector<std::vector<CrossMatchOutcome>> seen(kJoiners);
  std::vector<std::thread> joiners;
  for (size_t t = 0; t < kJoiners; ++t) {
    joiners.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        seen[t].push_back(matcher.Run(
            {.dataset_a = fx.id_a, .dataset_b = fx.id_b, .mode = mode_of(t)}));
        completed[t].fetch_add(1, std::memory_order_release);
      }
    });
  }
  std::vector<uint32_t> skip;
  std::vector<geom::Polygon> pb = fx.pb;
  for (uint32_t i = 0; i < 6; ++i) {
    std::vector<geom::Polygon> add = {
        CenteredSquare(0.02 + 0.01 * static_cast<double>(i))};
    service::MutationResult grown = fx.service->AddPolygons(fx.id_b, add);
    ASSERT_EQ(grown.status, service::MutationStatus::kApplied);
    pb.push_back(add[0]);
    pb_at[grown.epoch] = pb;
    service::MutationResult shrunk = fx.service->RemovePolygons(fx.id_a, {i});
    ASSERT_EQ(shrunk.status, service::MutationStatus::kApplied);
    skip.push_back(i);
    skip_at[shrunk.epoch] = skip;
  }
  // Every joiner finishes two more joins, so each has joined the final
  // epochs at least once (and, past its first, from the cache).
  for (size_t t = 0; t < kJoiners; ++t) {
    const uint64_t mark = completed[t].load(std::memory_order_acquire);
    while (completed[t].load(std::memory_order_acquire) < mark + 2) {
      std::this_thread::yield();
    }
  }
  stop.store(true);
  for (auto& th : joiners) th.join();

  // Every outcome equals the oracle of the exact epoch pair it reports.
  std::map<std::tuple<uint64_t, uint64_t, CrossMatchMode>, Pairs> oracle;
  for (size_t t = 0; t < kJoiners; ++t) {
    for (const CrossMatchOutcome& out : seen[t]) {
      ASSERT_EQ(out.status, CrossMatchStatus::kOk);
      ASSERT_EQ(skip_at.count(out.epoch_a), 1u) << out.epoch_a;
      ASSERT_EQ(pb_at.count(out.epoch_b), 1u) << out.epoch_b;
      const auto key = std::make_tuple(out.epoch_a, out.epoch_b, mode_of(t));
      auto it = oracle.find(key);
      if (it == oracle.end()) {
        Pairs want = BruteForceCrossMatch(fx.pa, pb_at[out.epoch_b],
                                          mode_of(t), skip_at[out.epoch_a]);
        it = oracle.emplace(key, std::move(want)).first;
      }
      EXPECT_EQ(out.pairs, it->second)
          << "epochs " << out.epoch_a << "/" << out.epoch_b;
    }
    ASSERT_FALSE(seen[t].empty());
    EXPECT_EQ(seen[t].back().epoch_a, skip_at.rbegin()->first);
    EXPECT_EQ(seen[t].back().epoch_b, pb_at.rbegin()->first);
  }
}

}  // namespace
}  // namespace actjoin::join2
