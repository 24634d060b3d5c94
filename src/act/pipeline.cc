#include "act/pipeline.h"

#include <algorithm>

#include "util/parallel_for.h"
#include "util/timer.h"

namespace actjoin::act {

namespace {

int ThreadBudget(const BuildOptions& opts) {
  return opts.threads <= 0 ? util::DefaultThreadCount() : opts.threads;
}

// Boundary and interior coverings of polygons [first, first + count), in
// parallel over polygons; slot i holds polygon first + i.
void ComputeCoverings(const std::vector<geom::Polygon>& polygons,
                      const PolygonClassifier& classifier,
                      const geo::Grid& grid, const BuildOptions& opts,
                      uint32_t first, uint32_t count,
                      std::vector<std::vector<geo::CellId>>* coverings,
                      std::vector<std::vector<geo::CellId>>* interiors) {
  cover::CovererOptions cover_opts{opts.approx.max_covering_cells,
                                   opts.approx.max_covering_level, 0};
  cover::CovererOptions interior_opts{opts.approx.max_interior_cells,
                                      opts.approx.max_interior_level, 0};
  coverings->assign(count, {});
  interiors->assign(count, {});
  util::ParallelFor(count, ThreadBudget(opts), /*batch=*/1,
                    [&](uint64_t begin, uint64_t end, int) {
                      for (uint64_t i = begin; i < end; ++i) {
                        const uint32_t pid =
                            first + static_cast<uint32_t>(i);
                        cover::Coverer coverer(polygons[pid],
                                               classifier.edge_grid(pid),
                                               grid);
                        (*coverings)[i] = coverer.Covering(cover_opts);
                        (*interiors)[i] =
                            coverer.InteriorCovering(interior_opts);
                      }
                    });
}

}  // namespace

void CoalesceRanges(std::vector<std::pair<uint64_t, uint64_t>>* ranges) {
  if (ranges->empty()) return;
  std::sort(ranges->begin(), ranges->end());
  size_t w = 0;
  for (size_t i = 1; i < ranges->size(); ++i) {
    auto& cur = (*ranges)[w];
    const auto& next = (*ranges)[i];
    // Adjacent leaf intervals coalesce too (max avoids overflow bait).
    if (next.first <= cur.second || next.first == cur.second + 1) {
      cur.second = std::max(cur.second, next.second);
    } else {
      (*ranges)[++w] = next;
    }
  }
  ranges->resize(w + 1);
}

SuperCovering BuildSuperCovering(const std::vector<geom::Polygon>& polygons,
                                 const geo::Grid& grid,
                                 const PolygonClassifier& classifier,
                                 const BuildOptions& opts,
                                 BuildTimings* timings) {
  ACT_CHECK(!polygons.empty());
  ACT_CHECK_MSG(polygons.size() <= kMaxPolygonId + uint64_t{1},
                "polygon ids are limited to 30 bits");

  // Phase 1: individual polygon approximations, parallelized over polygons
  // (paper: "the computation of the individual coverings is parallelized
  // over the number of polygons").
  util::WallTimer timer;
  std::vector<std::vector<geo::CellId>> coverings, interiors;
  ComputeCoverings(polygons, classifier, grid, opts, 0,
                   static_cast<uint32_t>(polygons.size()), &coverings,
                   &interiors);
  if (timings != nullptr) {
    timings->individual_coverings_s = timer.ElapsedSeconds();
  }

  // Phase 2: serial merge into the super covering (Listing 1): all
  // coverings first, then all interior coverings.
  timer.Restart();
  SuperCoveringBuilder builder;
  for (uint32_t pid = 0; pid < polygons.size(); ++pid) {
    builder.AddCovering(coverings[pid], pid, /*interior=*/false);
  }
  for (uint32_t pid = 0; pid < polygons.size(); ++pid) {
    builder.AddCovering(interiors[pid], pid, /*interior=*/true);
  }
  SuperCovering covering = builder.Build();
  if (timings != nullptr) timings->super_covering_s = timer.ElapsedSeconds();

  // Phase 3: optional precision-bound refinement (Sec. 3.2).
  if (opts.precision_bound_m.has_value()) {
    timer.Restart();
    covering = RefineToPrecision(covering, *opts.precision_bound_m, grid,
                                 classifier);
    if (timings != nullptr) timings->refine_s = timer.ElapsedSeconds();
  }
  return covering;
}

PolygonIndex PolygonIndex::Build(const std::vector<geom::Polygon>& polygons,
                                 const geo::Grid& grid,
                                 const BuildOptions& opts) {
  PolygonIndex index(grid);
  index.polygons_ =
      std::make_shared<const std::vector<geom::Polygon>>(polygons);
  index.opts_ = opts;
  index.BuildClassifier(nullptr);
  index.covering_ = BuildSuperCovering(*index.polygons_, index.grid_,
                                       *index.classifier_, opts,
                                       &index.timings_);
  index.Reencode();
  return index;
}

PolygonIndex PolygonIndex::FromComponents(std::vector<geom::Polygon> polygons,
                                          const geo::Grid& grid,
                                          const BuildOptions& opts,
                                          SuperCovering covering) {
  PolygonIndex index(grid);
  index.polygons_ =
      std::make_shared<const std::vector<geom::Polygon>>(std::move(polygons));
  index.opts_ = opts;
  index.covering_ = std::move(covering);
  index.BuildClassifier(nullptr);
  index.Reencode();
  return index;
}

void PolygonIndex::BuildClassifier(const PolygonClassifier* base) {
  util::WallTimer timer;
  classifier_ =
      base == nullptr
          ? std::make_shared<const PolygonClassifier>(*polygons_, grid_,
                                                      ThreadBudget(opts_))
          : std::make_shared<const PolygonClassifier>(*polygons_, *base,
                                                      ThreadBudget(opts_));
  timings_.classifier_s = timer.ElapsedSeconds();
}

PolygonIndex PolygonIndex::WithDelta(
    std::span<const uint32_t> removed_ids,
    std::span<const geom::Polygon> added,
    std::vector<std::pair<uint64_t, uint64_t>>* touched_ranges) const {
  const uint32_t first_id = static_cast<uint32_t>(polygons_->size());
  ACT_CHECK_MSG(
      polygons_->size() + added.size() <= kMaxPolygonId + uint64_t{1},
      "polygon ids are limited to 30 bits");
  std::vector<bool> removed(polygons_->size(), false);
  for (uint32_t pid : removed_ids) {
    ACT_CHECK(pid < polygons_->size());
    removed[pid] = true;
  }
  auto touch = [&](const geo::CellId& cell) {
    if (touched_ranges != nullptr) {
      touched_ranges->emplace_back(cell.range_min().id(),
                                   cell.range_max().id());
    }
  };

  PolygonIndex next(grid_);
  next.opts_ = opts_;
  next.timings_ = timings_;  // build-phase timings; Reencode refreshes its own
  if (added.empty()) {
    // Removed polygons keep their slots, so the set is unchanged.
    next.polygons_ = polygons_;
    next.classifier_ = classifier_;
    next.timings_.classifier_s = 0;
  } else {
    auto polygons = std::make_shared<std::vector<geom::Polygon>>();
    polygons->reserve(polygons_->size() + added.size());
    polygons->insert(polygons->end(), polygons_->begin(), polygons_->end());
    polygons->insert(polygons->end(), added.begin(), added.end());
    next.polygons_ = std::move(polygons);
    next.BuildClassifier(classifier_.get());
  }

  // Coverings for the added polygons only, and the sorted, coalesced union
  // of their cells' leaf ranges: the only region the inserts can change.
  util::WallTimer timer;
  const uint32_t n_added = static_cast<uint32_t>(added.size());
  std::vector<std::vector<geo::CellId>> coverings, interiors;
  ComputeCoverings(*next.polygons_, *next.classifier_, grid_, opts_,
                   first_id, n_added, &coverings, &interiors);
  std::vector<std::pair<uint64_t, uint64_t>> region;
  for (const auto* lists : {&coverings, &interiors}) {
    for (const std::vector<geo::CellId>& list : *lists) {
      for (const geo::CellId& c : list) {
        region.emplace_back(c.range_min().id(), c.range_max().id());
      }
    }
  }
  CoalesceRanges(&region);

  // The base covering's cells and the region are both sorted and
  // disjoint, so one forward-only cursor over the region answers "does
  // this cell meet the added region" for every cell in order.
  auto meets_region = [&](const geo::CellId& cell, size_t* cursor) {
    const uint64_t lo = cell.range_min().id(), hi = cell.range_max().id();
    while (*cursor < region.size() && region[*cursor].second < lo) ++*cursor;
    return *cursor < region.size() && region[*cursor].first <= hi;
  };
  auto removes_any = [&](std::span<const PolygonRef> refs) {
    return std::any_of(refs.begin(), refs.end(), [&](const PolygonRef& ref) {
      return removed[ref.polygon_id];
    });
  };
  // Base references minus the removed ones, in a reused buffer.
  std::vector<PolygonRef> kept;
  auto filter = [&](std::span<const PolygonRef> refs) {
    kept.clear();
    for (const PolygonRef& ref : refs) {
      if (!removed[ref.polygon_id]) kept.push_back(ref);
    }
    return std::span<const PolygonRef>(kept);
  };

  // Listing 1 on the added region only: the base cells meeting it (minus
  // removed references; they are disjoint from their peers, so they insert
  // without conflict), then all boundary coverings, then all interiors —
  // exactly the order a global builder would see them in.
  SuperCovering rebuilt;
  if (n_added > 0) {
    SuperCoveringBuilder local;
    size_t cursor = 0;
    for (size_t i = 0; i < covering_.size(); ++i) {
      const geo::CellId& cell = covering_.cell(i);
      if (!meets_region(cell, &cursor)) continue;
      std::span<const PolygonRef> refs = filter(covering_.refs(i));
      if (!refs.empty()) local.Insert(cell, refs);
    }
    for (uint32_t i = 0; i < n_added; ++i) {
      local.AddCovering(coverings[i], first_id + i, /*interior=*/false);
    }
    for (uint32_t i = 0; i < n_added; ++i) {
      local.AddCovering(interiors[i], first_id + i, /*interior=*/true);
    }
    rebuilt = local.Build();
    // Carried-over cells are already refined (Build refines, snapshots
    // persist the refined covering, and refinement leaves a refined cell
    // as it is), so only the rebuilt region needs the precision bound.
    if (opts_.precision_bound_m.has_value()) {
      rebuilt = RefineToPrecision(rebuilt, *opts_.precision_bound_m, grid_,
                                  *next.classifier_);
    }
    for (size_t j = 0; j < rebuilt.size(); ++j) {
      const std::span<const PolygonRef> refs = rebuilt.refs(j);
      if (std::any_of(refs.begin(), refs.end(), [&](const PolygonRef& ref) {
            return ref.polygon_id >= first_id;
          })) {
        touch(rebuilt.cell(j));
      }
    }
  }

  // One linear pass writes the successor covering: every base cell outside
  // the region is carried over (minus removed references, dropped once
  // empty), with the rebuilt cells spliced in id order — the two sets are
  // disjoint, so id order is range order.
  SuperCovering& out = next.covering_;
  out.Reserve(covering_.size() + rebuilt.size(),
              covering_.num_refs() + rebuilt.num_refs());
  size_t cursor = 0, j = 0;
  for (size_t i = 0; i < covering_.size(); ++i) {
    const geo::CellId& cell = covering_.cell(i);
    std::span<const PolygonRef> refs = covering_.refs(i);
    if (removes_any(refs)) {
      touch(cell);
      refs = filter(refs);
    }
    if (meets_region(cell, &cursor)) continue;  // replaced by rebuilt
    if (refs.empty()) continue;  // cell no longer references anything
    for (; j < rebuilt.size() && rebuilt.cell(j) < cell; ++j) {
      out.Append(rebuilt.cell(j), rebuilt.refs(j));
    }
    out.Append(cell, refs);
  }
  for (; j < rebuilt.size(); ++j) out.Append(rebuilt.cell(j), rebuilt.refs(j));
  next.timings_.delta_pass_s = timer.ElapsedSeconds();
  next.Reencode();  // also compacts the lookup table (paper: periodic reorg)
  return next;
}

uint32_t PolygonIndex::AddPolygons(
    std::span<const geom::Polygon> new_polygons) {
  const uint32_t first_id = static_cast<uint32_t>(polygons_->size());
  *this = WithDelta({}, new_polygons);
  return first_id;
}

void PolygonIndex::RemovePolygons(std::span<const uint32_t> polygon_ids) {
  *this = WithDelta(polygon_ids, {});
}

void PolygonIndex::Reencode() {
  util::WallTimer timer;
  encoded_ = Encode(covering_);
  timings_.encode_s = timer.ElapsedSeconds();
  timer.Restart();
  trie_ = std::make_unique<AdaptiveCellTrie>(encoded_, opts_.act);
  timings_.trie_build_s = timer.ElapsedSeconds();
}

TrainStats PolygonIndex::Train(const JoinInput& training_points,
                               const TrainOptions& opts) {
  SuperCoveringBuilder builder = ToBuilder(covering_);
  TrainStats stats =
      TrainOnPoints(&builder, training_points, *classifier_, opts);
  covering_ = builder.Build();
  Reencode();
  return stats;
}

}  // namespace actjoin::act
