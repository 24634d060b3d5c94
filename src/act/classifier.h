// PolygonClassifier: cell-vs-polygon relation tests for a whole polygon set.
//
// Holds one edge-grid accelerator per polygon (reused by covering
// computation, precision refinement, and index training). Grids are
// immutable and shared: a classifier derived for an extended polygon set
// reuses its base's grids and builds only the new polygons' ones, so an
// index snapshot pays for the polygons a delta adds, not for the whole set.
// This is build-time machinery only; the join's refinement phase uses the
// raw O(edges) PIP test to keep the paper's cost model.

#ifndef ACTJOIN_ACT_CLASSIFIER_H_
#define ACTJOIN_ACT_CLASSIFIER_H_

#include <memory>
#include <vector>

#include "act/super_covering.h"
#include "geo/grid.h"
#include "geometry/edge_grid.h"
#include "geometry/polygon.h"
#include "util/check.h"
#include "util/parallel_for.h"

namespace actjoin::act {

class PolygonClassifier final : public CellClassifier {
 public:
  /// Builds a grid for every polygon. `polygons` must outlive the
  /// classifier and stay where it is (a PolygonIndex keeps its set on the
  /// heap for this).
  PolygonClassifier(const std::vector<geom::Polygon>& polygons,
                    const geo::Grid& grid, int threads = 1)
      : polygons_(&polygons), grid_(grid) {
    BuildGrids(threads);
  }

  /// Classifier for a set whose first base.size() polygons are `base`'s
  /// (the same polygons, possibly a copy): those share base's grids and
  /// only the rest are built.
  PolygonClassifier(const std::vector<geom::Polygon>& polygons,
                    const PolygonClassifier& base, int threads = 1)
      : polygons_(&polygons), grid_(base.grid_) {
    ACT_CHECK(polygons.size() >= base.edge_grids_.size());
    edge_grids_ = base.edge_grids_;
    BuildGrids(threads);
  }

  geom::RegionRelation Classify(uint32_t polygon_id,
                                const geo::CellId& cell) const override {
    geo::LatLngRect r = grid_.CellRect(cell);
    return edge_grids_[polygon_id]->Classify(
        (*polygons_)[polygon_id],
        geom::Rect::Of(r.lng_lo, r.lat_lo, r.lng_hi, r.lat_hi));
  }

  const geom::EdgeGrid& edge_grid(uint32_t polygon_id) const {
    return *edge_grids_[polygon_id];
  }

  /// Grids this classifier built itself; the others are shared with the
  /// classifier it was derived from.
  size_t num_built() const { return num_built_; }

  const geo::Grid& grid() const { return grid_; }

 private:
  // Below this many new grids the build runs on the calling thread: a
  // delta adding a few polygons should not pay for spawning workers.
  static constexpr size_t kMinParallelGrids = 16;

  // Builds the grids of polygons [edge_grids_.size(), polygons_->size()).
  void BuildGrids(int threads) {
    const size_t first = edge_grids_.size();
    num_built_ = polygons_->size() - first;
    edge_grids_.resize(polygons_->size());
    if (num_built_ < kMinParallelGrids) threads = 1;
    util::ParallelFor(
        num_built_, threads, /*batch=*/1,
        [&](uint64_t begin, uint64_t end, int) {
          for (uint64_t i = first + begin; i < first + end; ++i) {
            edge_grids_[i] =
                std::make_shared<const geom::EdgeGrid>((*polygons_)[i]);
          }
        });
  }

  // The polygons by pointer and the grid by value: a PolygonIndex moves
  // its classifier along with its own grid, and keeps its polygon vector
  // at a fixed heap address.
  const std::vector<geom::Polygon>* polygons_;
  geo::Grid grid_;
  std::vector<std::shared_ptr<const geom::EdgeGrid>> edge_grids_;
  size_t num_built_ = 0;
};

}  // namespace actjoin::act

#endif  // ACTJOIN_ACT_CLASSIFIER_H_
