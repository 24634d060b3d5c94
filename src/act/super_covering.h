// Super covering: the merged, disjoint, multi-resolution approximation of an
// entire polygon set (paper Sec. 3.1.1).
//
// "All grid cells are disjoint in the sense that each geographical point is
// covered by at most one cell, even if two (or more) polygons overlap. A
// single cell of the super covering can therefore be associated with
// multiple polygons."
//
// The builder implements the precision-preserving conflict resolution of
// Listing 1 / Fig. 4 (store c2 and d = c1 - c2 instead of c1 and c2),
// generalized: inserting a cell that contains *several* existing cells
// splits the new cell around all of them. The paper's pairwise listing is a
// special case.

#ifndef ACTJOIN_ACT_SUPER_COVERING_H_
#define ACTJOIN_ACT_SUPER_COVERING_H_

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "act/lookup_table.h"
#include "act/polygon_ref.h"
#include "act/tagged_entry.h"
#include "geo/cell_id.h"
#include "geo/grid.h"
#include "geometry/pip.h"

namespace actjoin::act {

/// Classification callback: relation of cell to polygon `polygon_id`.
/// Implemented by PolygonClassifier (see classifier.h); kept abstract here
/// so the covering logic has no dependency on how classification is done.
class CellClassifier {
 public:
  virtual ~CellClassifier() = default;
  virtual geom::RegionRelation Classify(uint32_t polygon_id,
                                        const geo::CellId& cell) const = 0;
};

/// Frozen super covering: cells sorted by id, with every cell's reference
/// list stored back to back in one flat array — the layout of the
/// snapshot's covering section, and no per-cell allocation (the paper's
/// lookup table is a single array for the same reason, Sec. 3.1.2). Cell i
/// references refs_[offsets_[i], offsets_[i + 1]); offsets are 32-bit,
/// checked on Append.
class SuperCovering {
 public:
  SuperCovering() = default;
  /// Packs per-cell lists into the flat form (a convenience for tests and
  /// hand-built coverings).
  SuperCovering(const std::vector<geo::CellId>& cells,
                const std::vector<RefList>& refs);

  size_t size() const { return cells_.size(); }
  const std::vector<geo::CellId>& cells() const { return cells_; }
  const geo::CellId& cell(size_t i) const { return cells_[i]; }
  std::span<const PolygonRef> refs(size_t i) const {
    return {refs_.data() + offsets_[i],
            static_cast<size_t>(offsets_[i + 1] - offsets_[i])};
  }
  /// Total references over all cells.
  size_t num_refs() const { return refs_.size(); }

  /// Index of the unique cell containing `id` (cells are disjoint), or -1.
  /// This is the reference probe all index structures must agree with.
  int64_t FindContaining(const geo::CellId& id) const;

  /// Number of cells whose reference list contains at least one candidate
  /// (boundary) reference — the paper's "expensive" cells.
  uint64_t CountExpensiveCells() const;

  /// Verifies pairwise disjointness (test support; O(n)).
  bool IsDisjoint() const;

  bool operator==(const SuperCovering&) const = default;

  /// Writers of a covering (the builder, refinement, snapshot parsing and
  /// the delta pass) fill the flat arrays in id order through these.
  void Reserve(size_t cells, size_t refs);
  /// Appends one cell after all present ones (ids must keep increasing).
  void Append(const geo::CellId& cell, std::span<const PolygonRef> refs);

 private:
  std::vector<geo::CellId> cells_;
  std::vector<uint32_t> offsets_;  // size() + 1 entries once non-empty
  std::vector<PolygonRef> refs_;
};

/// Mutable form used by the builder (Listing 1) and by index training
/// (Sec. 3.3.1), which must see its own refinements while processing
/// training points.
class SuperCoveringBuilder {
 public:
  /// Inserts all cells of one polygon covering. interior=false for the
  /// boundary covering, true for the interior covering (paper Listing 1
  /// processes all coverings first, then all interior coverings).
  void AddCovering(std::span<const geo::CellId> cells, uint32_t polygon_id,
                   bool interior);

  /// General insertion with conflict resolution; exposed for tests.
  void Insert(const geo::CellId& cell, std::span<const PolygonRef> refs);

  /// Freezes into the immutable form. The builder is left empty.
  SuperCovering Build();

  size_t size() const { return map_.size(); }

  // --- Training support (paper Sec. 3.3.1) ---------------------------------

  /// Iterator-ish handle to the cell containing `id`, or nullptr.
  const std::pair<const geo::CellId, RefList>* FindContaining(
      const geo::CellId& id) const;

  /// Replaces an expensive cell with its (up to four) direct children,
  /// re-classifying boundary references per child; children with no
  /// remaining references are dropped. Returns the number of cells added
  /// (children kept minus the removed original).
  int64_t SplitCell(const geo::CellId& cell, const CellClassifier& classifier);

 private:
  std::map<geo::CellId, RefList> map_;
};

/// Options mirroring the paper's default covering configuration (Sec. 4).
struct ApproximationOptions {
  int max_covering_cells = 128;
  int max_covering_level = geo::CellId::kMaxLevel;
  int max_interior_cells = 256;
  int max_interior_level = 20;
};

/// Precision-bound refinement (Sec. 3.2): replaces every boundary cell with
/// descendants whose diagonal is at most `bound_m` meters, re-classifying
/// each descendant against its referenced polygons. Cells that end up with
/// no references are removed. Returns a new covering; `in` is unchanged.
SuperCovering RefineToPrecision(const SuperCovering& in, double bound_m,
                                const geo::Grid& grid,
                                const CellClassifier& classifier);

/// Indexable form shared by ACT and the B-tree / sorted-vector baselines:
/// (cell id, tagged entry) pairs sorted by id plus the lookup table.
struct EncodedCovering {
  std::vector<std::pair<geo::CellId, TaggedEntry>> cells;
  LookupTable table;

  size_t RawKeyValueBytes() const { return cells.size() * 16; }
};

/// Encodes reference lists into tagged entries (inlining one or two refs,
/// spilling longer lists to the lookup table, which stores each distinct
/// list once). With inline_refs = false all lists go through the table —
/// an ablation knob for the paper's "avoid an unnecessary indirection"
/// design choice.
EncodedCovering Encode(const SuperCovering& sc, bool inline_refs = true);

}  // namespace actjoin::act

#endif  // ACTJOIN_ACT_SUPER_COVERING_H_
