// Polygon references: the per-cell payload of the super covering.
//
// Paper Sec. 3.1.1: "A polygon reference has two attributes: polygon id
// [and an] interior flag [telling] whether the cell is an interior or a
// boundary cell of the polygon." References are encoded as 31-bit values
// (30-bit polygon id + 1 interior bit) when inlined into the trie, which
// caps the polygon count at 2^30.

#ifndef ACTJOIN_ACT_POLYGON_REF_H_
#define ACTJOIN_ACT_POLYGON_REF_H_

#include <cstdint>
#include <span>

#include "util/check.h"
#include "util/small_vector.h"

namespace actjoin::act {

/// Maximum representable polygon id (30 bits, paper Sec. 3.1.2).
inline constexpr uint32_t kMaxPolygonId = (uint32_t{1} << 30) - 1;

struct PolygonRef {
  uint32_t polygon_id = 0;
  /// True: the cell lies fully inside the polygon => a probe hitting it is a
  /// *true hit*. False: boundary cell => *candidate hit*.
  bool interior = false;

  bool operator==(const PolygonRef& o) const {
    return polygon_id == o.polygon_id && interior == o.interior;
  }

  /// 31-bit wire form: (polygon_id << 1) | interior.
  uint32_t Encode() const {
    ACT_CHECK(polygon_id <= kMaxPolygonId);
    return (polygon_id << 1) | (interior ? 1u : 0u);
  }

  static PolygonRef Decode(uint32_t v) {
    return {v >> 1, (v & 1) != 0};
  }
};

/// Mutable reference list of one cell inside SuperCoveringBuilder; one or
/// two entries in the common case of largely disjoint polygons, so two
/// slots are kept inline. A frozen SuperCovering stores all lists in one
/// flat array and hands them out as spans.
using RefList = util::SmallVector<PolygonRef, 2>;

/// Merges `ref` into `list`. An interior reference absorbs a boundary
/// reference of the same polygon: a cell known to lie inside an interior
/// cell of polygon p is provably inside p, so the stronger fact wins.
inline void MergeRef(RefList* list, const PolygonRef& ref) {
  for (PolygonRef& existing : *list) {
    if (existing.polygon_id == ref.polygon_id) {
      existing.interior = existing.interior || ref.interior;
      return;
    }
  }
  list->push_back(ref);
}

inline void MergeRefs(RefList* list, std::span<const PolygonRef> other) {
  for (const PolygonRef& r : other) MergeRef(list, r);
}

/// True iff at least one reference is a boundary (candidate) reference —
/// the paper's definition of an "expensive cell" (Sec. 3.3.1).
inline bool HasCandidate(std::span<const PolygonRef> list) {
  for (const PolygonRef& r : list) {
    if (!r.interior) return true;
  }
  return false;
}

}  // namespace actjoin::act

#endif  // ACTJOIN_ACT_POLYGON_REF_H_
