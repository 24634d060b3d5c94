#include "geometry/poly_poly.h"

#include "geometry/pip.h"
#include "geometry/segment.h"

namespace actjoin::geom {

namespace {

inline bool Covered(const Polygon& poly, const EdgeGrid* grid,
                    const Point& p) {
  return grid != nullptr ? grid->ContainsPoint(poly, p)
                         : ContainsPoint(poly, p);
}

inline Point Midpoint(const Point& a, const Point& b) {
  return {(a.x + b.x) / 2, (a.y + b.y) / 2};
}

/// Any vertex of `of` covered by `by`?
bool AnyVertexCovered(const Polygon& of, const Polygon& by,
                      const EdgeGrid* by_grid) {
  for (const Ring& ring : of.rings()) {
    for (const Point& v : ring) {
      if (Covered(by, by_grid, v)) return true;
    }
  }
  return false;
}

/// Does the closed segment [p, q] lie entirely within one edge of `poly`?
/// Exact where the midpoint probe is not: computing the midpoint of a
/// boundary-coincident edge rounds it off the shared line, after which the
/// crossing-parity test reports an arbitrary side. This test uses only the
/// original vertex coordinates, so coincident edges (the shared-edge and
/// identical-polygon fixtures) are decided exactly.
bool SegmentWithinBoundary(const Polygon& poly, const Point& p,
                           const Point& q) {
  for (uint32_t e = 0; e < poly.num_edges(); ++e) {
    auto [a, b] = poly.Edge(e);
    if (OnSegment(a, b, p) && OnSegment(a, b, q)) return true;
  }
  return false;
}

}  // namespace

bool PolygonsIntersect(const Polygon& a, const Polygon& b,
                       const EdgeGrid* grid_a, const EdgeGrid* grid_b) {
  if (!a.mbr().Intersects(b.mbr())) return false;
  // Containment cases first: they are the cheap batteries, and for the
  // partition-style fixtures most intersecting pairs resolve here.
  if (AnyVertexCovered(b, a, grid_a)) return true;
  if (AnyVertexCovered(a, b, grid_b)) return true;
  // Boundary-boundary: any shared point of two edges proves intersection
  // (SegmentsIntersect is closed, so touches and overlaps count). Prune
  // edge pairs with the other polygon's MBR before the O(1) test.
  const Rect& bm = b.mbr();
  for (uint32_t ea = 0; ea < a.num_edges(); ++ea) {
    auto [p1, q1] = a.Edge(ea);
    if (!SegmentIntersectsRect(p1, q1, bm)) continue;
    for (uint32_t eb = 0; eb < b.num_edges(); ++eb) {
      auto [p2, q2] = b.Edge(eb);
      if (SegmentsIntersect(p1, q1, p2, q2)) return true;
    }
  }
  return false;
}

bool PolygonCovers(const Polygon& a, const Polygon& b, const EdgeGrid* grid_a,
                   const EdgeGrid* grid_b) {
  if (!a.mbr().Contains(b.mbr())) return false;
  // Every vertex of B must lie in the closed region A.
  for (const Ring& ring : b.rings()) {
    for (const Point& v : ring) {
      if (!Covered(a, grid_a, v)) return false;
    }
  }
  // A proper boundary crossing means B's boundary passes from one side of
  // A's boundary to the other — some neighborhood of the crossing is in B
  // but outside A (or in a hole of A).
  const Rect& bm = b.mbr();
  for (uint32_t ea = 0; ea < a.num_edges(); ++ea) {
    auto [p1, q1] = a.Edge(ea);
    if (!SegmentIntersectsRect(p1, q1, bm)) continue;
    for (uint32_t eb = 0; eb < b.num_edges(); ++eb) {
      auto [p2, q2] = b.Edge(eb);
      if (SegmentsCrossProperly(p1, q1, p2, q2)) return false;
    }
  }
  // Midpoints of B's edges must also be covered: a B edge can leave A
  // through a vertex touch that the proper-crossing test ignores. An edge
  // lying within A's boundary is covered by definition — decided from the
  // endpoints because its computed midpoint rounds off the shared line.
  for (uint32_t eb = 0; eb < b.num_edges(); ++eb) {
    auto [p2, q2] = b.Edge(eb);
    if (Covered(a, grid_a, Midpoint(p2, q2))) continue;
    if (!SegmentWithinBoundary(a, p2, q2)) return false;
  }
  // No piece of A's boundary may be strictly interior to B: that would put
  // points on both sides of A's boundary inside B, and one side is not in
  // A (a hole of A inside B, or A's outer boundary slicing through B). An
  // A edge lying within B's boundary is not *strictly* interior — again
  // decided from the endpoints, not the rounded midpoint.
  for (uint32_t ea = 0; ea < a.num_edges(); ++ea) {
    auto [p1, q1] = a.Edge(ea);
    for (const Point& probe : {p1, Midpoint(p1, q1)}) {
      if (!bm.Contains(probe)) continue;
      if (Covered(b, grid_b, probe) && !OnBoundary(b, probe) &&
          !SegmentWithinBoundary(b, p1, q1)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace actjoin::geom
