// End-to-end index construction: the library's main entry point.
//
// Mirrors the paper's build phase: compute per-polygon coverings and
// interior coverings (parallelized over polygons), merge them serially into
// the super covering (Listing 1), optionally refine boundary cells to a
// precision bound (Sec. 3.2) and/or train with historical points
// (Sec. 3.3.1), then encode and load the result into an Adaptive Cell Trie.
//
// Typical use:
//   geo::Grid grid;
//   act::PolygonIndex index = act::PolygonIndex::Build(polygons, grid, opts);
//   act::JoinStats stats = index.Join(points, {.mode = JoinMode::kExact});

#ifndef ACTJOIN_ACT_PIPELINE_H_
#define ACTJOIN_ACT_PIPELINE_H_

#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "act/act.h"
#include "act/classifier.h"
#include "act/join.h"
#include "act/super_covering.h"
#include "act/trainer.h"
#include "cover/coverer.h"
#include "geo/grid.h"
#include "geometry/polygon.h"

namespace actjoin::act {

struct BuildOptions {
  ApproximationOptions approx;   // covering budgets (paper Sec. 4 defaults)
  /// If set, refine to this precision bound in meters (approximate mode
  /// indexes; 60/15/4 m in the paper). Unset => coarse index for the exact
  /// join.
  std::optional<double> precision_bound_m;
  ActOptions act;                // fanout etc.
  /// Library-wide thread convention (same as JoinOptions.threads):
  /// 0 => util::DefaultThreadCount() (hardware concurrency), positive
  /// values are taken literally.
  int threads = 0;
};

struct BuildTimings {
  double individual_coverings_s = 0;  // parallel phase
  double super_covering_s = 0;        // serial merge (paper Table 1)
  double refine_s = 0;
  double encode_s = 0;
  double trie_build_s = 0;
  /// WithDelta only: the added polygons' coverings plus the pass that
  /// writes the successor covering (encode and trie build are above).
  double delta_pass_s = 0;
  /// Building edge grids: every polygon's for Build and FromComponents,
  /// only the added ones' for WithDelta (0 for a remove-only delta).
  double classifier_s = 0;
};

/// A fully built polygon index. Owns a copy of the polygons, so the index
/// can outlive (and extend) the input set. The polygon vector and the
/// classifier's edge grids are immutable and shared with the snapshots
/// WithDelta derives (see there).
class PolygonIndex {
 public:
  static PolygonIndex Build(const std::vector<geom::Polygon>& polygons,
                            const geo::Grid& grid, const BuildOptions& opts);

  /// Reassembles an index from persisted components (see serialization.h):
  /// the covering is taken as-is; classifier, lookup table, and trie are
  /// rebuilt.
  static PolygonIndex FromComponents(std::vector<geom::Polygon> polygons,
                                     const geo::Grid& grid,
                                     const BuildOptions& opts,
                                     SuperCovering covering);

  /// Trains with historical points and rebuilds the trie (Sec. 3.3.1).
  TrainStats Train(const JoinInput& training_points,
                   const TrainOptions& opts = {});

  // --- Snapshot support (src/service/ serving layer) ------------------------

  /// Independent copy: reuses the already-computed super covering (the
  /// expensive pipeline phase) and re-derives classifier, encoding, and
  /// trie — work proportional to the whole set. The clone shares nothing
  /// with the original. Not the mutation path: WithDelta derives a
  /// successor without encoding twice.
  PolygonIndex Clone() const {
    return FromComponents(*polygons_, grid_, opts_, covering_);
  }

  /// Clone() boxed for the snapshot registry (see service/index_registry.h).
  std::shared_ptr<const PolygonIndex> CloneShared() const {
    return std::make_shared<const PolygonIndex>(Clone());
  }

  // --- Updates (the paper's Sec. 3.1.2 outlook: "the same procedure could
  // be used to add new polygons at runtime") ---------------------------------

  /// Derives the successor index of one delta without touching this one
  /// (so readers can keep probing it): references to `removed_ids` leave
  /// the covering (cells left referencing nothing are dropped; ids keep
  /// their slots and are never reused), and `added` polygons get the next
  /// ids in order and have their coverings inserted with the usual conflict
  /// resolution. Only base cells whose range meets an added cell go
  /// through the builder; every other cell is carried over as-is, which
  /// yields the same covering as inserting into the whole set (an insert
  /// only reads or changes cells meeting its range). The precision bound,
  /// if any, is re-applied to the rebuilt cells, then the covering is
  /// encoded once. Cost: one linear pass that writes the flat successor
  /// covering (a remove-only delta is nothing but that pass) plus Encode
  /// and trie build over the whole set; covering work is proportional to
  /// the added polygons and the cells they meet.
  ///
  /// Polygons and edge grids are shared, never rebuilt: a remove-only
  /// delta shares this index's polygon vector and classifier (removed
  /// polygons keep their slots); an add copies the polygon vector, appends
  /// the added polygons, and builds edge grids for those only, sharing
  /// every other grid. The successor never references this index's
  /// polygon vector unless it shares it outright.
  ///
  /// A non-null `touched_ranges` receives (unsorted, possibly overlapping)
  /// leaf-id intervals [first, last] of every base cell that lost a removed
  /// reference and every successor cell carrying an added reference —
  /// exactly the cells whose probe results differ between the two indexes.
  PolygonIndex WithDelta(
      std::span<const uint32_t> removed_ids,
      std::span<const geom::Polygon> added,
      std::vector<std::pair<uint64_t, uint64_t>>* touched_ranges =
          nullptr) const;

  /// In-place WithDelta(no removals, new_polygons). Returns the first id
  /// assigned.
  uint32_t AddPolygons(std::span<const geom::Polygon> new_polygons);

  /// In-place WithDelta(polygon_ids, no additions). The paper notes removal
  /// "would follow the same logic" plus periodic lookup-table compaction —
  /// the re-encode compacts.
  void RemovePolygons(std::span<const uint32_t> polygon_ids);

  JoinStats Join(const JoinInput& points, const JoinOptions& opts) const {
    return ExecuteJoin(*trie_, encoded_.table, points, *polygons_, opts);
  }

  std::vector<std::pair<uint64_t, uint32_t>> JoinPairs(const JoinInput& points,
                                                       JoinMode mode) const {
    return ExecuteJoinPairs(*trie_, encoded_.table, points, *polygons_,
                            mode);
  }

  const AdaptiveCellTrie& trie() const { return *trie_; }
  const SuperCovering& covering() const { return covering_; }
  const EncodedCovering& encoded() const { return encoded_; }
  const PolygonClassifier& classifier() const { return *classifier_; }
  const std::vector<geom::Polygon>& polygons() const { return *polygons_; }
  /// The polygon vector itself, as shared between snapshots.
  const std::shared_ptr<const std::vector<geom::Polygon>>& shared_polygons()
      const {
    return polygons_;
  }
  const geo::Grid& grid() const { return grid_; }
  const BuildOptions& options() const { return opts_; }
  const BuildTimings& timings() const { return timings_; }

  /// Index memory: trie nodes + lookup table.
  uint64_t MemoryBytes() const {
    return trie_->stats().memory_bytes + encoded_.table.SizeBytes();
  }

 private:
  explicit PolygonIndex(const geo::Grid& grid) : grid_(grid) {}

  /// Builds the classifier over polygons_; with a base, derives it from
  /// the base's (sharing the grids of the polygons the two have in common).
  void BuildClassifier(const PolygonClassifier* base);
  void Reencode();

  std::shared_ptr<const std::vector<geom::Polygon>> polygons_;
  geo::Grid grid_;
  BuildOptions opts_;
  std::shared_ptr<const PolygonClassifier> classifier_;
  SuperCovering covering_;
  EncodedCovering encoded_;
  std::unique_ptr<AdaptiveCellTrie> trie_;
  BuildTimings timings_;
};

/// Sorts leaf-id intervals [first, last] and merges overlapping or adjacent
/// ones in place (WithDelta's touched ranges become the sorted, disjoint
/// form cache invalidation binary-searches).
void CoalesceRanges(std::vector<std::pair<uint64_t, uint64_t>>* ranges);

/// Lower-level helper used by benchmarks that index the same super covering
/// with several data structures: build just the (optionally refined) super
/// covering plus timings.
SuperCovering BuildSuperCovering(const std::vector<geom::Polygon>& polygons,
                                 const geo::Grid& grid,
                                 const PolygonClassifier& classifier,
                                 const BuildOptions& opts,
                                 BuildTimings* timings);

}  // namespace actjoin::act

#endif  // ACTJOIN_ACT_PIPELINE_H_
