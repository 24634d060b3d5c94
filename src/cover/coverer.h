// Quadtree cell approximation of polygons (paper Sec. 2, "Polygon
// Approximations").
//
// Computes the two per-polygon inputs of the super covering build:
//   * Covering: cells that together contain the polygon. Boundary-straddling
//     cells are subdivided best-first until the max_cells budget or
//     max_level is reached.
//   * Interior covering: cells fully inside the polygon (true-hit cells).
//
// The paper's default configuration (Sec. 4) is max covering cells = 128,
// max covering level = 30, max interior cells = 256, max interior level =
// 20; those are the defaults here.

#ifndef ACTJOIN_COVER_COVERER_H_
#define ACTJOIN_COVER_COVERER_H_

#include <memory>
#include <vector>

#include "geo/cell_id.h"
#include "geo/grid.h"
#include "geometry/edge_grid.h"
#include "geometry/polygon.h"

namespace actjoin::cover {

struct CovererOptions {
  int max_cells = 128;
  int max_level = geo::CellId::kMaxLevel;
  int min_level = 0;
};

/// Per-polygon coverer. Uses an edge-grid accelerator so repeated covering
/// calls (covering + interior covering + later refinement) stay cheap.
class Coverer {
 public:
  /// Builds and owns an edge grid for the polygon.
  Coverer(const geom::Polygon& poly, const geo::Grid& grid);

  /// Reuses an externally owned edge grid built for `poly` (both must
  /// outlive the coverer).
  Coverer(const geom::Polygon& poly, const geom::EdgeGrid& edges,
          const geo::Grid& grid);

  /// Cells whose union contains the polygon. Result is normalized (sorted,
  /// disjoint) and respects opts.max_cells / max_level.
  std::vector<geo::CellId> Covering(const CovererOptions& opts) const;

  /// Cells fully contained in the polygon (may be empty for thin polygons).
  /// Result is normalized and respects opts.max_cells / max_level.
  std::vector<geo::CellId> InteriorCovering(const CovererOptions& opts) const;

  /// Relation of one cell to the polygon, via the edge-grid accelerator.
  geom::RegionRelation Classify(const geo::CellId& cell) const;

 private:
  /// Seed cells: the smallest single cell (at most max_level) containing
  /// the polygon's MBR, or the intersecting face cells when the MBR spans
  /// faces.
  std::vector<geo::CellId> SeedCells(int max_level) const;

  const geom::Polygon* poly_;
  const geo::Grid* grid_;
  std::unique_ptr<geom::EdgeGrid> owned_edges_;
  const geom::EdgeGrid* edges_;
};

/// Convenience wrappers constructing a transient Coverer.
std::vector<geo::CellId> ComputeCovering(const geom::Polygon& poly,
                                         const geo::Grid& grid,
                                         const CovererOptions& opts);
std::vector<geo::CellId> ComputeInteriorCovering(const geom::Polygon& poly,
                                                 const geo::Grid& grid,
                                                 const CovererOptions& opts);

}  // namespace actjoin::cover

#endif  // ACTJOIN_COVER_COVERER_H_
