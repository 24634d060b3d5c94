#include "cover/coverer.h"

#include <queue>

#include "cover/cell_union.h"
#include "util/check.h"

namespace actjoin::cover {

using geo::CellId;
using geom::RegionRelation;

namespace {

geom::Rect ToGeomRect(const geo::LatLngRect& r) {
  return geom::Rect::Of(r.lng_lo, r.lat_lo, r.lng_hi, r.lat_hi);
}

struct Candidate {
  CellId cell;
  RegionRelation relation;
};

// Coarsest-first, then id order for determinism.
struct CoarsestFirst {
  bool operator()(const Candidate& a, const Candidate& b) const {
    int la = a.cell.level();
    int lb = b.cell.level();
    if (la != lb) return la > lb;  // priority_queue: "smaller" popped last
    return a.cell.id() > b.cell.id();
  }
};

using CandidateQueue =
    std::priority_queue<Candidate, std::vector<Candidate>, CoarsestFirst>;

}  // namespace

Coverer::Coverer(const geom::Polygon& poly, const geo::Grid& grid)
    : poly_(&poly),
      grid_(&grid),
      owned_edges_(std::make_unique<geom::EdgeGrid>(poly)),
      edges_(owned_edges_.get()) {}

Coverer::Coverer(const geom::Polygon& poly, const geom::EdgeGrid& edges,
                 const geo::Grid& grid)
    : poly_(&poly), grid_(&grid), edges_(&edges) {}

RegionRelation Coverer::Classify(const CellId& cell) const {
  return edges_->Classify(*poly_, ToGeomRect(grid_->CellRect(cell)));
}

std::vector<CellId> Coverer::SeedCells(int max_level) const {
  const geom::Rect& mbr = poly_->mbr();
  ACT_CHECK_MSG(!mbr.IsEmpty(), "cannot cover an empty polygon");
  int face_lo = geo::Grid::FaceAt({mbr.lo.y, mbr.lo.x});
  int face_hi = geo::Grid::FaceAt({mbr.hi.y, mbr.hi.x});
  std::vector<CellId> seeds;
  if (face_lo != face_hi) {
    for (int f = face_lo; f <= face_hi; ++f) seeds.push_back(CellId::FromFace(f));
    return seeds;
  }
  // Descend from the face cell while a single child still contains the MBR,
  // but never past max_level (the covering must respect it even for tiny
  // polygons).
  CellId cell = CellId::FromFace(face_lo);
  while (cell.level() < max_level) {
    bool descended = false;
    for (int k = 0; k < 4; ++k) {
      CellId child = cell.child(k);
      if (ToGeomRect(grid_->CellRect(child)).Contains(mbr)) {
        cell = child;
        descended = true;
        break;
      }
    }
    if (!descended) break;
  }
  seeds.push_back(cell);
  return seeds;
}

std::vector<CellId> Coverer::Covering(const CovererOptions& opts) const {
  ACT_CHECK(opts.max_cells >= 1);
  std::vector<CellId> result;
  CandidateQueue queue;
  size_t queued = 0;
  for (const CellId& seed : SeedCells(opts.max_level)) {
    RegionRelation rel = Classify(seed);
    if (rel == RegionRelation::kDisjoint) continue;
    queue.push({seed, rel});
    ++queued;
  }
  while (!queue.empty()) {
    Candidate c = queue.top();
    queue.pop();
    --queued;
    int level = c.cell.level();
    bool must_split = level < opts.min_level && !c.cell.is_leaf();
    bool terminal = !must_split && (c.relation == RegionRelation::kContained ||
                                    level >= opts.max_level ||
                                    c.cell.is_leaf());
    // A split replaces one candidate with up to four: net growth <= 3.
    bool budget_ok =
        result.size() + queued + 4 <= static_cast<size_t>(opts.max_cells);
    if (terminal || (!must_split && !budget_ok)) {
      result.push_back(c.cell);
      continue;
    }
    if (must_split && !budget_ok) {
      // Cannot honor min_level within budget; emit rather than drop area.
      result.push_back(c.cell);
      continue;
    }
    for (int k = 0; k < 4; ++k) {
      CellId child = c.cell.child(k);
      RegionRelation rel = c.relation == RegionRelation::kContained
                               ? RegionRelation::kContained
                               : Classify(child);
      if (rel == RegionRelation::kDisjoint) continue;
      queue.push({child, rel});
      ++queued;
    }
  }
  Normalize(&result, /*merge_siblings=*/false);
  return result;
}

std::vector<CellId> Coverer::InteriorCovering(
    const CovererOptions& opts) const {
  ACT_CHECK(opts.max_cells >= 1);
  std::vector<CellId> result;
  CandidateQueue queue;
  size_t queued = 0;
  for (const CellId& seed : SeedCells(opts.max_level)) {
    RegionRelation rel = Classify(seed);
    if (rel == RegionRelation::kDisjoint) continue;
    queue.push({seed, rel});
    ++queued;
  }
  while (!queue.empty()) {
    Candidate c = queue.top();
    queue.pop();
    --queued;
    if (c.relation == RegionRelation::kContained) {
      result.push_back(c.cell);
      continue;
    }
    // Boundary cell: subdivide while budget and level allow, else drop.
    int level = c.cell.level();
    bool budget_ok =
        result.size() + queued + 4 <= static_cast<size_t>(opts.max_cells);
    if (level >= opts.max_level || c.cell.is_leaf() || !budget_ok) continue;
    for (int k = 0; k < 4; ++k) {
      CellId child = c.cell.child(k);
      RegionRelation rel = Classify(child);
      if (rel == RegionRelation::kDisjoint) continue;
      queue.push({child, rel});
      ++queued;
    }
  }
  Normalize(&result, /*merge_siblings=*/true);
  return result;
}

std::vector<CellId> ComputeCovering(const geom::Polygon& poly,
                                    const geo::Grid& grid,
                                    const CovererOptions& opts) {
  return Coverer(poly, grid).Covering(opts);
}

std::vector<CellId> ComputeInteriorCovering(const geom::Polygon& poly,
                                            const geo::Grid& grid,
                                            const CovererOptions& opts) {
  return Coverer(poly, grid).InteriorCovering(opts);
}

}  // namespace actjoin::cover
