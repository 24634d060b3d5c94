#include "geometry/edge_grid.h"

#include <algorithm>
#include <cmath>

#include "geometry/segment.h"
#include "util/check.h"

namespace actjoin::geom {

EdgeGrid::EdgeGrid(const Polygon& poly, int resolution) {
  bounds_ = poly.mbr();
  // Pad the bounds slightly so boundary vertices fall strictly inside and
  // bucket indexing never sees coordinates on the outer edge.
  double pad_x = std::max(bounds_.Width(), 1e-12) * 1e-9;
  double pad_y = std::max(bounds_.Height(), 1e-12) * 1e-9;
  bounds_.lo.x -= pad_x;
  bounds_.lo.y -= pad_y;
  bounds_.hi.x += pad_x;
  bounds_.hi.y += pad_y;

  if (resolution <= 0) {
    resolution = static_cast<int>(std::ceil(std::sqrt(
        static_cast<double>(std::max<uint32_t>(poly.num_edges(), 1)))));
  }
  nx_ = ny_ = std::clamp(resolution, 1, 256);
  inv_w_ = nx_ / bounds_.Width();
  inv_h_ = ny_ / bounds_.Height();
  buckets_.resize(static_cast<size_t>(nx_) * ny_);

  // Insert each edge into every bucket its bounding box overlaps, then
  // refine with an exact segment/rect test to keep bucket lists tight.
  uint32_t n = poly.num_edges();
  for (uint32_t e = 0; e < n; ++e) {
    auto [a, b] = poly.Edge(e);
    int x0 = BucketX(std::min(a.x, b.x));
    int x1 = BucketX(std::max(a.x, b.x));
    int y0 = BucketY(std::min(a.y, b.y));
    int y1 = BucketY(std::max(a.y, b.y));
    for (int y = y0; y <= y1; ++y) {
      for (int x = x0; x <= x1; ++x) {
        Rect cell = Rect::Of(bounds_.lo.x + x / inv_w_,
                             bounds_.lo.y + y / inv_h_,
                             bounds_.lo.x + (x + 1) / inv_w_,
                             bounds_.lo.y + (y + 1) / inv_h_);
        if (SegmentIntersectsRect(a, b, cell)) {
          buckets_[static_cast<size_t>(y) * nx_ + x].edges.push_back(e);
        }
      }
    }
  }

  // Precompute per-bucket center containment with the exact test. If a
  // center happens to lie on an edge, nudge it until it does not; parity
  // walks require an unambiguous anchor.
  for (int y = 0; y < ny_; ++y) {
    for (int x = 0; x < nx_; ++x) {
      Bucket& bkt = buckets_[static_cast<size_t>(y) * nx_ + x];
      Point c{bounds_.lo.x + (x + 0.5) / inv_w_,
              bounds_.lo.y + (y + 0.5) / inv_h_};
      double step_x = 0.01 / inv_w_;
      double step_y = 0.013 / inv_h_;
      for (int attempt = 0; attempt < 8 && OnBoundary(poly, c); ++attempt) {
        c.x += step_x;
        c.y += step_y;
      }
      bkt.center = c;
      bkt.center_inside = geom::ContainsPoint(poly, c) && !OnBoundary(poly, c);
    }
  }
}

int EdgeGrid::BucketX(double x) const {
  int b = static_cast<int>((x - bounds_.lo.x) * inv_w_);
  return std::clamp(b, 0, nx_ - 1);
}

int EdgeGrid::BucketY(double y) const {
  int b = static_cast<int>((y - bounds_.lo.y) * inv_h_);
  return std::clamp(b, 0, ny_ - 1);
}

const EdgeGrid::Bucket& EdgeGrid::BucketAt(const Point& p) const {
  return buckets_[static_cast<size_t>(BucketY(p.y)) * nx_ + BucketX(p.x)];
}

int EdgeGrid::CountCrossings(const Polygon& poly, const Bucket& b,
                             const Point& a, const Point& p, bool* ok) {
  *ok = true;
  int crossings = 0;
  for (uint32_t e : b.edges) {
    auto [u, v] = poly.Edge(e);
    if (SegmentsCrossProperly(a, p, u, v)) {
      ++crossings;
      continue;
    }
    if (SegmentsIntersect(a, p, u, v)) {
      // Touching a vertex or collinear overlap: parity would be ambiguous.
      *ok = false;
      return 0;
    }
  }
  return crossings;
}

bool EdgeGrid::ContainsPoint(const Polygon& poly, const Point& p) const {
  if (!poly.mbr().Contains(p)) return false;
  const Bucket& b = BucketAt(p);
  if (b.edges.empty()) return b.center_inside;
  // Boundary points are covered under ST_Covers.
  for (uint32_t e : b.edges) {
    auto [u, v] = poly.Edge(e);
    if (OnSegment(u, v, p)) return true;
  }
  bool ok = false;
  int crossings = CountCrossings(poly, b, b.center, p, &ok);
  if (!ok) return geom::ContainsPoint(poly, p);  // rare degenerate case
  return b.center_inside == ((crossings & 1) == 0);
}

RegionRelation EdgeGrid::Classify(const Polygon& poly, const Rect& rect) const {
  if (!poly.mbr().Intersects(rect)) return RegionRelation::kDisjoint;
  int x0 = BucketX(rect.lo.x);
  int x1 = BucketX(rect.hi.x);
  int y0 = BucketY(rect.lo.y);
  int y1 = BucketY(rect.hi.y);
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      const Bucket& b = buckets_[static_cast<size_t>(y) * nx_ + x];
      for (uint32_t e : b.edges) {
        auto [u, v] = poly.Edge(e);
        if (SegmentIntersectsRect(u, v, rect)) {
          return RegionRelation::kIntersects;
        }
      }
    }
  }
  // The rect touches no edge: uniformly inside or outside.
  return ContainsPoint(poly, rect.Center()) ? RegionRelation::kContained
                                      : RegionRelation::kDisjoint;
}

size_t EdgeGrid::IncidenceCount() const {
  size_t total = 0;
  for (const Bucket& b : buckets_) total += b.edges.size();
  return total;
}

}  // namespace actjoin::geom
