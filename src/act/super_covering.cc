#include "act/super_covering.h"

#include <algorithm>
#include <limits>

#include "cover/cell_union.h"
#include "util/check.h"

namespace actjoin::act {

using geo::CellId;
using geom::RegionRelation;

// ---------------------------------------------------------------------------
// SuperCovering
// ---------------------------------------------------------------------------

SuperCovering::SuperCovering(const std::vector<CellId>& cells,
                             const std::vector<RefList>& refs) {
  ACT_CHECK(cells.size() == refs.size());
  size_t n_refs = 0;
  for (const RefList& r : refs) n_refs += r.size();
  Reserve(cells.size(), n_refs);
  for (size_t i = 0; i < cells.size(); ++i) Append(cells[i], refs[i]);
}

void SuperCovering::Reserve(size_t cells, size_t refs) {
  cells_.reserve(cells);
  offsets_.reserve(cells + 1);
  refs_.reserve(refs);
}

void SuperCovering::Append(const CellId& cell,
                           std::span<const PolygonRef> refs) {
  ACT_CHECK(cells_.empty() || cells_.back() < cell);
  if (offsets_.empty()) offsets_.push_back(0);
  refs_.insert(refs_.end(), refs.begin(), refs.end());
  ACT_CHECK_MSG(refs_.size() <= std::numeric_limits<uint32_t>::max(),
                "super covering exceeds 32-bit reference offsets");
  cells_.push_back(cell);
  offsets_.push_back(static_cast<uint32_t>(refs_.size()));
}

int64_t SuperCovering::FindContaining(const CellId& id) const {
  auto it = std::lower_bound(cells_.begin(), cells_.end(), id);
  if (it != cells_.end() && it->range_min() <= id) {
    return it - cells_.begin();
  }
  if (it != cells_.begin() && std::prev(it)->range_max() >= id) {
    return std::prev(it) - cells_.begin();
  }
  return -1;
}

uint64_t SuperCovering::CountExpensiveCells() const {
  uint64_t n = 0;
  for (size_t i = 0; i < size(); ++i) {
    if (HasCandidate(refs(i))) ++n;
  }
  return n;
}

bool SuperCovering::IsDisjoint() const {
  for (size_t i = 1; i < cells_.size(); ++i) {
    // Sorted + disjoint <=> each cell's range starts after the previous
    // cell's range ends.
    if (cells_[i].range_min() <= cells_[i - 1].range_max()) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// SuperCoveringBuilder (paper Listing 1, generalized)
// ---------------------------------------------------------------------------

void SuperCoveringBuilder::AddCovering(std::span<const CellId> cells,
                                       uint32_t polygon_id, bool interior) {
  const PolygonRef ref{polygon_id, interior};
  for (const CellId& c : cells) Insert(c, {&ref, 1});
}

void SuperCoveringBuilder::Insert(const CellId& cell,
                                  std::span<const PolygonRef> refs) {
  ACT_CHECK(cell.is_valid());
  // Case 0: the cell already exists — merge reference lists.
  auto exact = map_.find(cell);
  if (exact != map_.end()) {
    MergeRefs(&exact->second, refs);
    return;
  }

  // Case 1: an existing ancestor c1 contains the new cell c2 = cell.
  // Disjointness makes the ancestor (if any) adjacent to `cell` in id
  // order: any id strictly between them would lie inside the ancestor's
  // range and thus violate disjointness.
  auto after = map_.upper_bound(cell);
  auto TryAncestor = [&](std::map<CellId, RefList>::iterator it) -> bool {
    if (it == map_.end() || !it->first.contains(cell)) return false;
    CellId c1 = it->first;
    RefList c1_refs = std::move(it->second);
    map_.erase(it);
    // Fig. 4: store c2 (with c1's refs merged in) and d = c1 - c2 (with
    // c1's refs); c1 itself is dropped.
    std::vector<CellId> diff;
    cover::CellDifference(c1, cell, &diff);
    RefList merged = c1_refs;
    MergeRefs(&merged, refs);
    map_.emplace(cell, std::move(merged));
    for (const CellId& d : diff) {
      // d-cells fall inside c1's former range, which contains no other
      // cells, so plain emplacement is safe.
      map_.emplace(d, c1_refs);
    }
    return true;
  };
  if (TryAncestor(after)) return;
  if (after != map_.begin() && TryAncestor(std::prev(after))) return;

  // Case 2: the new cell contains one or more existing cells. They occupy
  // the contiguous id range [range_min, range_max].
  auto lo = map_.lower_bound(cell.range_min());
  auto hi = map_.upper_bound(cell.range_max());
  if (lo == hi) {
    // Case 3: no conflict at all.
    map_.emplace(cell, RefList(refs));
    return;
  }
  std::vector<CellId> holes;
  for (auto it = lo; it != hi; ++it) {
    ACT_CHECK(cell.contains(it->first));
    holes.push_back(it->first);
    MergeRefs(&it->second, refs);  // descendants inherit the new refs
  }
  std::vector<CellId> diff;
  cover::CellDifferenceMulti(cell, holes, &diff);
  for (const CellId& d : diff) {
    map_.emplace(d, RefList(refs));
  }
}

SuperCovering SuperCoveringBuilder::Build() {
  SuperCovering out;
  // Every cell carries at least one reference; lists longer than that
  // grow the reference array geometrically.
  out.Reserve(map_.size(), map_.size());
  for (const auto& [cell, r] : map_) out.Append(cell, r);
  map_.clear();
  return out;
}

const std::pair<const CellId, RefList>* SuperCoveringBuilder::FindContaining(
    const CellId& id) const {
  auto it = map_.lower_bound(id);
  if (it != map_.end() && it->first.range_min() <= id) return &*it;
  if (it != map_.begin()) {
    --it;
    if (it->first.range_max() >= id) return &*it;
  }
  return nullptr;
}

int64_t SuperCoveringBuilder::SplitCell(const CellId& cell,
                                        const CellClassifier& classifier) {
  auto it = map_.find(cell);
  ACT_CHECK_MSG(it != map_.end(), "SplitCell: cell not present");
  if (cell.is_leaf()) return 0;
  RefList refs = std::move(it->second);
  map_.erase(it);
  int64_t added = -1;
  for (int k = 0; k < 4; ++k) {
    CellId child = cell.child(k);
    RefList child_refs;
    for (const PolygonRef& r : refs) {
      if (r.interior) {
        // Fully-contained stays fully contained for every descendant.
        child_refs.push_back(r);
        continue;
      }
      switch (classifier.Classify(r.polygon_id, child)) {
        case RegionRelation::kContained:
          child_refs.push_back({r.polygon_id, true});
          break;
        case RegionRelation::kIntersects:
          child_refs.push_back({r.polygon_id, false});
          break;
        case RegionRelation::kDisjoint:
          break;
      }
    }
    if (!child_refs.empty()) {
      map_.emplace(child, std::move(child_refs));
      ++added;
    }
  }
  return added;
}

// ---------------------------------------------------------------------------
// Precision refinement (paper Sec. 3.2)
// ---------------------------------------------------------------------------

namespace {

void RefineCell(const CellId& cell, std::span<const PolygonRef> refs,
                double bound_m, const geo::Grid& grid,
                const CellClassifier& classifier, SuperCovering* out) {
  // Interior-only cells are true hits at any size; emit as-is.
  if (!HasCandidate(refs)) {
    out->Append(cell, refs);
    return;
  }
  // Re-classify boundary references against *this* cell before anything
  // else. This is load-bearing for the precision guarantee: difference
  // cells from the conflict resolution (paper Fig. 4) inherit all of c1's
  // references, so a cell can carry a boundary ref for a polygon it does
  // not actually touch; emitting it unchecked would produce false
  // positives arbitrarily far from that polygon.
  RefList live;
  for (const PolygonRef& r : refs) {
    if (r.interior) {
      live.push_back(r);
      continue;
    }
    switch (classifier.Classify(r.polygon_id, cell)) {
      case RegionRelation::kContained:
        live.push_back({r.polygon_id, true});
        break;
      case RegionRelation::kIntersects:
        live.push_back({r.polygon_id, false});
        break;
      case RegionRelation::kDisjoint:
        break;
    }
  }
  if (live.empty()) return;
  // The guarantee: any false positive is at most the diagonal of the
  // largest boundary cell away from the polygon ("a distance of
  // sqrt(2) * delta").
  if (!HasCandidate(live) || cell.is_leaf() ||
      grid.CellDiagonalMeters(cell) <= bound_m) {
    out->Append(cell, live);
    return;
  }
  for (int k = 0; k < 4; ++k) {
    RefineCell(cell.child(k), live, bound_m, grid, classifier, out);
  }
}

}  // namespace

SuperCovering RefineToPrecision(const SuperCovering& in, double bound_m,
                                const geo::Grid& grid,
                                const CellClassifier& classifier) {
  ACT_CHECK(bound_m > 0);
  SuperCovering out;
  out.Reserve(in.size(), in.num_refs());
  // Children are emitted in curve order inside each original cell and
  // original cells are sorted, so the output is sorted by construction.
  for (size_t i = 0; i < in.size(); ++i) {
    RefineCell(in.cell(i), in.refs(i), bound_m, grid, classifier, &out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

EncodedCovering Encode(const SuperCovering& sc, bool inline_refs) {
  EncodedCovering out;
  out.cells.reserve(sc.size());
  LookupTableBuilder builder;
  for (size_t i = 0; i < sc.size(); ++i) {
    const std::span<const PolygonRef> refs = sc.refs(i);
    ACT_CHECK(!refs.empty());
    TaggedEntry entry;
    if (inline_refs && refs.size() == 1) {
      entry = MakeOneRef(refs[0]);
    } else if (inline_refs && refs.size() == 2) {
      entry = MakeTwoRefs(refs[0], refs[1]);
    } else {
      entry = MakeTableOffset(builder.AddList(refs));
    }
    out.cells.emplace_back(sc.cell(i), entry);
  }
  out.table = std::move(builder).Build();
  return out;
}

}  // namespace actjoin::act
