// Tests for runtime index updates (paper Sec. 3.1.2 outlook): adding and
// removing polygons from a live PolygonIndex. The contract under test:
// after any update sequence, the exact join equals the brute-force oracle
// over the active polygon set, the covering stays disjoint, and — in
// approximate mode — the precision bound still holds.

//
// Seeding convention (full rationale in util_test.cc): random data comes
// only from util::Rng with explicit literal seeds or from the workload
// factories, whose default seeds are fixed compile-time constants -- never
// time- or address-derived -- so every ctest run is bit-reproducible.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "act/classifier.h"
#include "act/pipeline.h"
#include "act/trainer.h"
#include "cover/coverer.h"
#include "geo/grid.h"
#include "geometry/pip.h"
#include "join2/cross_match.h"
#include "service/sharded_index.h"
#include "util/random.h"
#include "workloads/datasets.h"
#include "workloads/polygon_gen.h"

namespace actjoin::act {
namespace {

using geo::Grid;

// Brute force restricted to a subset of active polygon ids.
std::vector<std::pair<uint64_t, uint32_t>> OracleActive(
    const JoinInput& input, const std::vector<geom::Polygon>& polys,
    const std::vector<bool>& active) {
  std::vector<std::pair<uint64_t, uint32_t>> out;
  for (uint64_t p = 0; p < input.size(); ++p) {
    for (uint32_t pid = 0; pid < polys.size(); ++pid) {
      if (active[pid] && geom::ContainsPoint(polys[pid], input.points[p])) {
        out.emplace_back(p, pid);
      }
    }
  }
  return out;
}

TEST(Updates, AddPolygonsMatchesFromScratch) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.08);
  const size_t half = ds.polygons.size() / 2;
  std::vector<geom::Polygon> first_half(ds.polygons.begin(),
                                        ds.polygons.begin() + half);
  std::vector<geom::Polygon> second_half(ds.polygons.begin() + half,
                                         ds.polygons.end());

  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(first_half, grid, opts);
  uint32_t first_new = index.AddPolygons(second_half);
  EXPECT_EQ(first_new, half);
  EXPECT_EQ(index.polygons().size(), ds.polygons.size());
  ASSERT_TRUE(index.covering().IsDisjoint());

  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 3000, grid, 31);
  auto got = index.JoinPairs(pts.AsJoinInput(), JoinMode::kExact);
  auto want = BruteForceJoinPairs(pts.AsJoinInput(), ds.polygons);
  ASSERT_EQ(got, want);
}

TEST(Updates, AddPolygonsIncrementalSingles) {
  // One polygon at a time, joining after each step.
  Grid grid;
  wl::PartitionSpec spec;
  spec.mbr = wl::NycMbr();
  spec.nx = spec.ny = 3;
  spec.edge_depth = 2;
  spec.seed = 5;
  std::vector<geom::Polygon> polys = wl::JitteredPartition(spec);

  BuildOptions opts;
  opts.threads = 1;
  std::vector<geom::Polygon> initial{polys[0]};
  PolygonIndex index = PolygonIndex::Build(initial, grid, opts);
  wl::PointSet pts = wl::SyntheticUniformPoints(spec.mbr, 1500, grid, 32);

  std::vector<geom::Polygon> active{polys[0]};
  for (size_t k = 1; k < polys.size(); ++k) {
    index.AddPolygons(std::span(&polys[k], 1));
    active.push_back(polys[k]);
    auto got = index.JoinPairs(pts.AsJoinInput(), JoinMode::kExact);
    auto want = BruteForceJoinPairs(pts.AsJoinInput(), active);
    ASSERT_EQ(got, want) << "after adding polygon " << k;
    ASSERT_TRUE(index.covering().IsDisjoint());
  }
}

TEST(Updates, AddKeepsPrecisionBound) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  const size_t half = ds.polygons.size() / 2;
  std::vector<geom::Polygon> first_half(ds.polygons.begin(),
                                        ds.polygons.begin() + half);
  std::vector<geom::Polygon> second_half(ds.polygons.begin() + half,
                                         ds.polygons.end());
  const double bound_m = 150.0;

  BuildOptions opts;
  opts.threads = 1;
  opts.precision_bound_m = bound_m;
  PolygonIndex index = PolygonIndex::Build(first_half, grid, opts);
  index.AddPolygons(second_half);

  // Boundary cells still satisfy the bound after the update.
  for (size_t i = 0; i < index.covering().size(); ++i) {
    if (HasCandidate(index.covering().refs(i))) {
      ASSERT_LE(grid.CellDiagonalMeters(index.covering().cell(i)), bound_m);
    }
  }
  // And approximate false positives stay within the bound.
  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 2500, grid, 33);
  auto approx = index.JoinPairs(pts.AsJoinInput(), JoinMode::kApproximate);
  auto exact = BruteForceJoinPairs(pts.AsJoinInput(), ds.polygons);
  ASSERT_TRUE(std::includes(approx.begin(), approx.end(), exact.begin(),
                            exact.end()));
  std::vector<std::pair<uint64_t, uint32_t>> extras;
  std::set_difference(approx.begin(), approx.end(), exact.begin(),
                      exact.end(), std::back_inserter(extras));
  for (const auto& [pi, pid] : extras) {
    ASSERT_LE(geom::DistanceToPolygonMeters(ds.polygons[pid],
                                            pts.points()[pi]),
              bound_m * 1.01);
  }
}

TEST(Updates, RemovePolygons) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.08);
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(ds.polygons, grid, opts);

  std::vector<bool> active(ds.polygons.size(), true);
  std::vector<uint32_t> to_remove;
  for (uint32_t pid = 0; pid < ds.polygons.size(); pid += 3) {
    to_remove.push_back(pid);
    active[pid] = false;
  }
  index.RemovePolygons(to_remove);
  ASSERT_TRUE(index.covering().IsDisjoint());

  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 3000, grid, 34);
  auto got = index.JoinPairs(pts.AsJoinInput(), JoinMode::kExact);
  auto want = OracleActive(pts.AsJoinInput(), ds.polygons, active);
  ASSERT_EQ(got, want);

  // Removed ids never reappear.
  for (const auto& [pi, pid] : got) {
    ASSERT_TRUE(active[pid]);
  }
}

TEST(Updates, RemoveAllThenAddBack) {
  Grid grid;
  wl::PartitionSpec spec;
  spec.mbr = wl::NycMbr();
  spec.nx = spec.ny = 2;
  spec.edge_depth = 1;
  spec.seed = 6;
  std::vector<geom::Polygon> polys = wl::JitteredPartition(spec);

  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(polys, grid, opts);
  std::vector<uint32_t> all{0, 1, 2, 3};
  index.RemovePolygons(all);
  EXPECT_EQ(index.covering().size(), 0u);

  wl::PointSet pts = wl::SyntheticUniformPoints(spec.mbr, 500, grid, 35);
  auto empty = index.JoinPairs(pts.AsJoinInput(), JoinMode::kExact);
  EXPECT_TRUE(empty.empty());

  // Re-adding as new ids resurrects the areas.
  uint32_t first = index.AddPolygons(polys);
  EXPECT_EQ(first, 4u);
  auto got = index.JoinPairs(pts.AsJoinInput(), JoinMode::kExact);
  EXPECT_EQ(got.size(),
            BruteForceJoinPairs(pts.AsJoinInput(), polys).size());
}

TEST(Updates, TrainAfterAddStillExact) {
  Grid grid;
  wl::PolygonDataset ds = wl::Neighborhoods(0.05);
  const size_t half = ds.polygons.size() / 2;
  std::vector<geom::Polygon> first_half(ds.polygons.begin(),
                                        ds.polygons.begin() + half);
  std::vector<geom::Polygon> second_half(ds.polygons.begin() + half,
                                         ds.polygons.end());

  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(first_half, grid, opts);
  index.AddPolygons(second_half);
  wl::PointSet history = wl::TaxiPoints(ds.mbr, 15000, grid, 36);
  index.Train(history.AsJoinInput());

  wl::PointSet pts = wl::TaxiPoints(ds.mbr, 2500, grid, 37);
  EXPECT_EQ(index.JoinPairs(pts.AsJoinInput(), JoinMode::kExact),
            BruteForceJoinPairs(pts.AsJoinInput(), ds.polygons));
}

TEST(Updates, AddOverlappingPolygonSharesCells) {
  // The new polygon overlaps existing ones: conflict resolution must merge
  // references rather than lose either polygon.
  Grid grid;
  std::vector<geom::Polygon> base;
  base.push_back(geom::Polygon(
      {{-74.05, 40.70}, {-73.95, 40.70}, {-73.95, 40.80}, {-74.05, 40.80}}));
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(base, grid, opts);

  std::vector<geom::Polygon> overlap;
  overlap.push_back(geom::Polygon(
      {{-74.00, 40.75}, {-73.90, 40.75}, {-73.90, 40.85}, {-74.00, 40.85}}));
  index.AddPolygons(overlap);

  // A point in the intersection joins with both.
  geom::Point p{-73.97, 40.77};
  std::vector<uint64_t> ids{grid.CellAt({p.y, p.x}).id()};
  std::vector<geom::Point> pv{p};
  auto got = index.JoinPairs({ids, pv}, JoinMode::kExact);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].second, 0u);
  EXPECT_EQ(got[1].second, 1u);
}

// --- WithDelta against the global mutation sequence ------------------------

using Ranges = std::vector<std::pair<uint64_t, uint64_t>>;

// Sorted, coalesced (overlapping or adjacent) form, so two invalidation
// sets compare by the leaves they cover rather than by how they were cut.
Ranges Normalized(Ranges r) {
  std::sort(r.begin(), r.end());
  Ranges out;
  for (const auto& iv : r) {
    if (!out.empty() && (iv.first <= out.back().second ||
                         iv.first == out.back().second + 1)) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

void TouchRange(const geo::CellId& cell, Ranges* out) {
  out->emplace_back(cell.range_min().id(), cell.range_max().id());
}

// The reference delta: filter the whole covering, reload it into a global
// builder, insert every added covering (all boundaries, then all
// interiors), refine, and derive the touched ranges with two full walks —
// the base cells that referenced a removed polygon and the result cells
// that reference an added one.
SuperCovering OracleDelta(const PolygonIndex& base,
                          const std::vector<uint32_t>& removed_ids,
                          const std::vector<geom::Polygon>& added,
                          Ranges* touched) {
  const BuildOptions& opts = base.options();
  const uint32_t first_id = static_cast<uint32_t>(base.polygons().size());
  std::vector<bool> removed(first_id, false);
  for (uint32_t pid : removed_ids) removed[pid] = true;
  std::vector<geo::CellId> cells;
  std::vector<RefList> refs;
  const SuperCovering& cov = base.covering();
  for (size_t i = 0; i < cov.size(); ++i) {
    RefList kept;
    for (const PolygonRef& r : cov.refs(i)) {
      if (!removed[r.polygon_id]) kept.push_back(r);
    }
    if (kept.size() != cov.refs(i).size()) TouchRange(cov.cell(i), touched);
    if (kept.empty()) continue;
    cells.push_back(cov.cell(i));
    refs.push_back(std::move(kept));
  }
  SuperCovering filtered(std::move(cells), std::move(refs));
  if (added.empty()) return filtered;

  std::vector<geom::Polygon> all = base.polygons();
  all.insert(all.end(), added.begin(), added.end());
  PolygonClassifier classifier(all, base.grid());
  cover::CovererOptions cover_opts{opts.approx.max_covering_cells,
                                   opts.approx.max_covering_level, 0};
  cover::CovererOptions interior_opts{opts.approx.max_interior_cells,
                                      opts.approx.max_interior_level, 0};
  SuperCoveringBuilder builder = ToBuilder(filtered);
  for (bool interior : {false, true}) {
    for (uint32_t pid = first_id; pid < all.size(); ++pid) {
      cover::Coverer coverer(all[pid], classifier.edge_grid(pid),
                             base.grid());
      builder.AddCovering(interior ? coverer.InteriorCovering(interior_opts)
                                   : coverer.Covering(cover_opts),
                          pid, interior);
    }
  }
  SuperCovering out = builder.Build();
  if (opts.precision_bound_m.has_value()) {
    out = RefineToPrecision(out, *opts.precision_bound_m, base.grid(),
                            classifier);
  }
  for (size_t i = 0; i < out.size(); ++i) {
    const std::span<const PolygonRef> r = out.refs(i);
    if (std::any_of(r.begin(), r.end(), [&](const PolygonRef& ref) {
          return ref.polygon_id >= first_id;
        })) {
      TouchRange(out.cell(i), touched);
    }
  }
  return out;
}

// Applies one delta through WithDelta and checks it against the oracle:
// cell by cell, reference list by reference list, index memory, touched
// ranges, and the exact join over the active polygons. Returns the
// successor so deltas can chain; `active` tracks the live ids.
PolygonIndex CheckDelta(const PolygonIndex& base,
                        const std::vector<uint32_t>& removed_ids,
                        const std::vector<geom::Polygon>& added,
                        const wl::PointSet& pts, std::vector<bool>* active) {
  Ranges touched;
  PolygonIndex next = base.WithDelta(removed_ids, added, &touched);
  Ranges want_touched;
  SuperCovering want = OracleDelta(base, removed_ids, added, &want_touched);

  EXPECT_TRUE(next.covering().IsDisjoint());
  EXPECT_EQ(next.covering().cells(), want.cells());
  for (size_t i = 0; i < std::min(want.size(), next.covering().size());
       ++i) {
    if (!std::ranges::equal(next.covering().refs(i), want.refs(i))) {
      ADD_FAILURE() << "reference lists differ at cell " << i;
      break;
    }
  }
  PolygonIndex want_index = PolygonIndex::FromComponents(
      next.polygons(), base.grid(), base.options(), std::move(want));
  EXPECT_EQ(next.MemoryBytes(), want_index.MemoryBytes());
  EXPECT_EQ(Normalized(touched), Normalized(want_touched));

  for (uint32_t pid : removed_ids) (*active)[pid] = false;
  active->resize(next.polygons().size(), true);
  EXPECT_EQ(next.JoinPairs(pts.AsJoinInput(), JoinMode::kExact),
            OracleActive(pts.AsJoinInput(), next.polygons(), *active));
  return next;
}

geom::Polygon Square(double x, double y, double half) {
  return geom::Polygon({{x - half, y - half},
                        {x + half, y - half},
                        {x + half, y + half},
                        {x - half, y + half}});
}

struct DeltaFixture {
  wl::PolygonDataset ds = wl::Neighborhoods(0.08);
  std::vector<geom::Polygon> base, spare;  // spare: never in the base
  wl::PointSet pts;
  std::vector<bool> active;

  explicit DeltaFixture(uint64_t point_seed) {
    const size_t n_base = ds.polygons.size() * 3 / 4;
    base.assign(ds.polygons.begin(),
                ds.polygons.begin() + static_cast<ptrdiff_t>(n_base));
    spare.assign(ds.polygons.begin() + static_cast<ptrdiff_t>(n_base),
                 ds.polygons.end());
    pts = wl::TaxiPoints(ds.mbr, 2000, Grid(), point_seed);
    active.assign(base.size(), true);
  }
};

TEST(Updates, WithDeltaRemoveOnlyMatchesOracle) {
  DeltaFixture fx(41);
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(fx.base, Grid(), opts);
  CheckDelta(index, {0, 5, 6, 17}, {}, fx.pts, &fx.active);
}

TEST(Updates, WithDeltaAddOnlyMatchesOracle) {
  DeltaFixture fx(42);
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(fx.base, Grid(), opts);
  std::vector<geom::Polygon> add(fx.spare.begin(), fx.spare.begin() + 4);
  PolygonIndex next = CheckDelta(index, {}, add, fx.pts, &fx.active);
  EXPECT_EQ(next.polygons().size(), fx.base.size() + 4);
  // The base is untouched: WithDelta derives, it does not mutate.
  EXPECT_EQ(index.polygons().size(), fx.base.size());
}

TEST(Updates, WithDeltaRemoveAndAddMatchesOracle) {
  DeltaFixture fx(43);
  BuildOptions opts;
  opts.threads = 2;
  PolygonIndex index = PolygonIndex::Build(fx.base, Grid(), opts);
  // Re-adding a removed polygon under a new id overlaps its old area
  // exactly; the spare ones tile next to the base.
  std::vector<geom::Polygon> add{fx.base[3], fx.spare[0], fx.spare[1]};
  CheckDelta(index, {3, 9}, add, fx.pts, &fx.active);
}

TEST(Updates, WithDeltaAddedCellInsideExistingCell) {
  // A large square's interior covering holds coarse cells; a small square
  // deep inside it lands in cells strictly contained by one of them
  // (Listing 1 case c1 contains c2).
  Grid grid;
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index =
      PolygonIndex::Build({Square(-73.95, 40.75, 0.08)}, grid, opts);
  std::vector<bool> active(1, true);
  wl::PointSet pts = wl::SyntheticUniformPoints(
      geom::Rect::Of(-74.05, 40.65, -73.85, 40.85), 1500, grid, 44);
  PolygonIndex next = CheckDelta(index, {}, {Square(-73.951, 40.751, 0.002)},
                                 pts, &active);
  EXPECT_GT(next.covering().size(), index.covering().size());
}

TEST(Updates, WithDeltaAddedCellContainsSeveralExistingCells) {
  // Many small squares, then one large square over all of them: its coarse
  // cells each contain several existing cells and split around them.
  Grid grid;
  std::vector<geom::Polygon> smalls;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      smalls.push_back(
          Square(-73.99 + 0.02 * i, 40.71 + 0.02 * j, 0.003));
    }
  }
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(smalls, grid, opts);
  std::vector<bool> active(smalls.size(), true);
  wl::PointSet pts = wl::SyntheticUniformPoints(
      geom::Rect::Of(-74.02, 40.68, -73.88, 40.82), 2000, grid, 45);
  CheckDelta(index, {2}, {Square(-73.96, 40.74, 0.05)}, pts, &active);
}

TEST(Updates, WithDeltaAddOutsideCurrentExtent) {
  // No base cell meets the added polygon's cells: the local builder sees
  // only the new coverings and the base cells carry over untouched.
  DeltaFixture fx(46);
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(fx.base, Grid(), opts);
  geom::Polygon far = Square(2.35, 48.85, 0.05);  // another continent
  PolygonIndex next = CheckDelta(index, {}, {far}, fx.pts, &fx.active);
  std::vector<uint64_t> ids{Grid().CellAt({48.85, 2.35}).id()};
  std::vector<geom::Point> pv{{2.35, 48.85}};
  auto got = next.JoinPairs({ids, pv}, JoinMode::kExact);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].second, fx.base.size());
}

TEST(Updates, WithDeltaRemoveAllThenAddBack) {
  DeltaFixture fx(47);
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(fx.base, Grid(), opts);
  std::vector<uint32_t> all(fx.base.size());
  for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  PolygonIndex empty = CheckDelta(index, all, {}, fx.pts, &fx.active);
  EXPECT_EQ(empty.covering().size(), 0u);
  CheckDelta(empty, {}, fx.base, fx.pts, &fx.active);
}

TEST(Updates, WithDeltaPrecisionBoundMatchesOracle) {
  DeltaFixture fx(48);
  BuildOptions opts;
  opts.threads = 1;
  opts.precision_bound_m = 120.0;
  PolygonIndex index = PolygonIndex::Build(fx.base, Grid(), opts);
  std::vector<geom::Polygon> add{fx.spare[2], fx.spare[3]};
  PolygonIndex next = CheckDelta(index, {1, 4}, add, fx.pts, &fx.active);
  for (size_t i = 0; i < next.covering().size(); ++i) {
    if (HasCandidate(next.covering().refs(i))) {
      ASSERT_LE(Grid().CellDiagonalMeters(next.covering().cell(i)), 120.0);
    }
  }
}

TEST(Updates, WithDeltaRandomizedChainMatchesOracle) {
  // Twelve random deltas chained on one index: each removes a few live ids
  // and/or adds a few polygons (spares, re-adds of removed ones, random
  // stars), and each step must equal the global sequence exactly.
  DeltaFixture fx(49);
  BuildOptions opts;
  opts.threads = 1;
  PolygonIndex index = PolygonIndex::Build(fx.base, Grid(), opts);
  util::Rng rng(4913);
  for (int step = 0; step < 12; ++step) {
    std::vector<uint32_t> remove;
    std::vector<geom::Polygon> add;
    const uint64_t kind = rng.UniformInt(3);  // 0 remove, 1 add, 2 both
    if (kind != 1) {
      for (uint64_t k = 1 + rng.UniformInt(3); k > 0; --k) {
        uint32_t pid =
            static_cast<uint32_t>(rng.UniformInt(index.polygons().size()));
        if (fx.active[pid]) remove.push_back(pid);
      }
    }
    if (kind != 0) {
      for (uint64_t k = 1 + rng.UniformInt(4); k > 0; --k) {
        switch (rng.UniformInt(3)) {
          case 0:
            add.push_back(fx.spare[rng.UniformInt(fx.spare.size())]);
            break;
          case 1:
            add.push_back(index.polygons()[rng.UniformInt(fx.base.size())]);
            break;
          default:
            add.push_back(wl::RandomStarPolygon(
                {rng.Uniform(fx.ds.mbr.lo.x, fx.ds.mbr.hi.x),
                 rng.Uniform(fx.ds.mbr.lo.y, fx.ds.mbr.hi.y)},
                rng.Uniform(0.001, 0.02), 7, rng.Next()));
        }
      }
    }
    SCOPED_TRACE("step " + std::to_string(step));
    index = CheckDelta(index, remove, add, fx.pts, &fx.active);
  }
}

// --- Shared state between epochs ---------------------------------------------

TEST(Updates, RemoveOnlyDeltaSharesPolygonsAndEdgeGrids) {
  DeltaFixture fx(50);
  BuildOptions opts;
  opts.threads = 2;
  PolygonIndex base = PolygonIndex::Build(fx.base, Grid(), opts);
  EXPECT_EQ(base.classifier().num_built(), fx.base.size());
  EXPECT_GT(base.timings().classifier_s, 0.0);

  PolygonIndex next = CheckDelta(base, {0, 5, 6}, {}, fx.pts, &fx.active);
  // No polygon copied: the successor holds the base's vector itself.
  EXPECT_EQ(next.shared_polygons(), base.shared_polygons());
  // No edge grid built: the classifier is shared, so every grid is the
  // base's own object.
  EXPECT_EQ(&next.classifier(), &base.classifier());
  for (uint32_t i = 0; i < fx.base.size(); ++i) {
    EXPECT_EQ(&next.classifier().edge_grid(i), &base.classifier().edge_grid(i))
        << "polygon " << i;
  }
  EXPECT_EQ(next.timings().classifier_s, 0.0);
}

TEST(Updates, AddDeltaBuildsOnlyTheAddedEdgeGrids) {
  DeltaFixture fx(51);
  BuildOptions opts;
  opts.threads = 2;
  PolygonIndex base = PolygonIndex::Build(fx.base, Grid(), opts);
  const uint32_t n = static_cast<uint32_t>(fx.base.size());
  std::vector<geom::Polygon> add(fx.spare.begin(), fx.spare.begin() + 4);

  for (const std::vector<uint32_t>& removed :
       {std::vector<uint32_t>{}, std::vector<uint32_t>{1, 2}}) {
    SCOPED_TRACE(removed.empty() ? "add 4" : "remove 2, add 4");
    std::vector<bool> active = fx.active;
    PolygonIndex next = CheckDelta(base, removed, add, fx.pts, &active);
    ASSERT_EQ(next.polygons().size(), n + 4);
    // The set grew, so the successor has its own vector; the base keeps
    // its own, unchanged.
    EXPECT_NE(next.shared_polygons(), base.shared_polygons());
    EXPECT_EQ(base.polygons().size(), n);
    // Exactly the four added polygons got grids built.
    EXPECT_EQ(next.classifier().num_built(), 4u);
    for (uint32_t i = 0; i < n; ++i) {
      ASSERT_EQ(&next.classifier().edge_grid(i),
                &base.classifier().edge_grid(i))
          << "polygon " << i;
    }
    for (uint32_t i = n; i < n + 4; ++i) {
      EXPECT_TRUE(next.classifier().edge_grid(i).ContainsPoint(
          next.polygons()[i], next.polygons()[i].rings()[0][0]));
    }
  }
}

TEST(Updates, ChurnReleasesRetiredPolygonVectors) {
  // 50 cycles of ADD 2 then REMOVE 2 (the two oldest live ids) through the
  // served path, keeping only the newest snapshot. Every epoch's point join
  // and crossmatch must equal the brute-force oracles over the live set,
  // and once the first snapshot is released nothing may keep its polygon
  // vector alive.
  DeltaFixture fx(52);
  service::ShardingOptions sharding;
  sharding.build.threads = 1;
  auto index = std::make_shared<const service::ShardedIndex>(
      service::ShardedIndex::Build(fx.base, Grid(), sharding));
  const service::ShardedIndex fixed =
      service::ShardedIndex::Build(fx.spare, Grid(), sharding);
  std::weak_ptr<const std::vector<geom::Polygon>> first =
      index->shard_index(0)->shared_polygons();

  std::vector<uint32_t> removed;
  uint32_t next_remove = 0;
  util::Rng rng(5252);
  auto check_epoch = [&](const service::ShardedIndex& idx) {
    const std::vector<geom::Polygon>& all = idx.shard_index(0)->polygons();
    auto is_removed = [&](uint32_t pid) {
      return std::find(removed.begin(), removed.end(), pid) != removed.end();
    };
    auto want = BruteForceJoinPairs(fx.pts.AsJoinInput(), all);
    std::erase_if(want, [&](const auto& pair) {
      return is_removed(pair.second);
    });
    ASSERT_EQ(idx.JoinPairs(fx.pts.AsJoinInput(), JoinMode::kExact), want);
    for (join2::CrossMatchMode mode : {join2::CrossMatchMode::kIntersects,
                                       join2::CrossMatchMode::kContains}) {
      ASSERT_EQ(join2::CrossMatchIndexes(idx, fixed, {.mode = mode}),
                join2::BruteForceCrossMatch(all, fx.spare, mode, removed));
    }
  };
  for (int cycle = 0; cycle < 50; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    service::ShardedIndex::Delta add;
    for (int k = 0; k < 2; ++k) {
      add.add.push_back(wl::RandomStarPolygon(
          {rng.Uniform(fx.ds.mbr.lo.x, fx.ds.mbr.hi.x),
           rng.Uniform(fx.ds.mbr.lo.y, fx.ds.mbr.hi.y)},
          rng.Uniform(0.002, 0.02), 7, rng.Next()));
    }
    index = service::ShardedIndex::ApplyDelta(*index, add).index;
    check_epoch(*index);
    service::ShardedIndex::Delta remove;
    remove.remove = {next_remove, next_remove + 1};
    next_remove += 2;
    // A remove-only delta shares the vector the add just made.
    auto shared_before = index->shard_index(0)->shared_polygons();
    index = service::ShardedIndex::ApplyDelta(*index, remove).index;
    EXPECT_EQ(index->shard_index(0)->shared_polygons(), shared_before);
    removed.insert(removed.end(), remove.remove.begin(), remove.remove.end());
    check_epoch(*index);
  }
  EXPECT_TRUE(first.expired());
}

}  // namespace
}  // namespace actjoin::act
