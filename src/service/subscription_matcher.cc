#include "service/subscription_matcher.h"

#include <algorithm>
#include <iterator>
#include <span>
#include <utility>

#include "act/pipeline.h"
#include "act/super_covering.h"
#include "geometry/pip.h"

namespace actjoin::service {

namespace {

bool CoverageContains(
    const std::vector<std::pair<uint64_t, uint64_t>>& coverage,
    uint64_t cell) {
  auto it = std::upper_bound(
      coverage.begin(), coverage.end(), cell,
      [](uint64_t c, const std::pair<uint64_t, uint64_t>& iv) {
        return c < iv.first;
      });
  if (it == coverage.begin()) return false;
  --it;
  return cell >= it->first && cell <= it->second;
}

/// Walks every covering cell of every shard, clipped to the shard's
/// Hilbert interval — the same disjointness-restoring walk
/// join2::IntervalView::FromIndex does (see its comment for why clipping
/// keeps exactly one copy of every leaf id).
template <typename Fn>
void ForEachClippedCell(const ShardedIndex& index, Fn&& fn) {
  for (int s = 0; s < index.num_shards(); ++s) {
    const act::PolygonIndex* shard = index.shard_index(s);
    if (shard == nullptr) continue;
    const std::vector<uint32_t>& gids = index.shard_polygon_ids(s);
    const auto [shard_lo, shard_hi] = index.ShardRange(s);
    const act::SuperCovering& sc = shard->covering();
    for (size_t i = 0; i < sc.size(); ++i) {
      const geo::CellId& cell = sc.cell(i);
      const uint64_t lo = std::max(cell.range_min().id(), shard_lo);
      const uint64_t hi = std::min(cell.range_max().id(), shard_hi);
      if (lo > hi) continue;
      const std::span<const act::PolygonRef> refs = sc.refs(i);
      if (refs.empty()) continue;
      fn(lo, hi, refs, gids);
    }
  }
}

void SortUnique(std::vector<uint32_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

void SubscriptionMatcher::BuildCoverage(const ShardedIndex& index, Sub* sub) {
  using Selector = SubscriptionSpec::Selector;
  sub->watch_all = sub->spec.selector == Selector::kAll;
  if (sub->spec.selector == Selector::kPolygonIds) {
    sub->watched = sub->spec.polygon_ids;
    SortUnique(&sub->watched);
  } else if (sub->spec.selector == Selector::kCellRange) {
    // Pass 1: the watched set is every polygon whose covering touches the
    // requested region. The polygon is then watched *everywhere* — a
    // track leaving it through the far side still gets its LEAVE.
    std::vector<uint32_t> watched;
    ForEachClippedCell(
        index, [&](uint64_t lo, uint64_t hi,
                   std::span<const act::PolygonRef> refs,
                   const std::vector<uint32_t>& gids) {
          if (hi < sub->spec.cell_lo || lo > sub->spec.cell_hi) return;
          for (const act::PolygonRef& r : refs) {
            watched.push_back(gids[r.polygon_id]);
          }
        });
    SortUnique(&watched);
    sub->watched = std::move(watched);
  } else {
    sub->watched.clear();
  }

  std::vector<std::pair<uint64_t, uint64_t>> intervals;
  ForEachClippedCell(
      index, [&](uint64_t lo, uint64_t hi,
                 std::span<const act::PolygonRef> refs,
                 const std::vector<uint32_t>& gids) {
        bool hit = sub->watch_all;
        if (!hit) {
          for (const act::PolygonRef& r : refs) {
            if (std::binary_search(sub->watched.begin(), sub->watched.end(),
                                   gids[r.polygon_id])) {
              hit = true;
              break;
            }
          }
        }
        if (hit) intervals.emplace_back(lo, hi);
      });
  std::sort(intervals.begin(), intervals.end());
  // Coalesce touching / overlapping intervals: the coverage is a presence
  // filter, so merging only makes the binary search shorter.
  sub->coverage.clear();
  for (const auto& iv : intervals) {
    if (!sub->coverage.empty()) {
      auto& back = sub->coverage.back();
      if (iv.first <= back.second ||
          (back.second != UINT64_MAX && iv.first == back.second + 1)) {
        back.second = std::max(back.second, iv.second);
        continue;
      }
    }
    sub->coverage.push_back(iv);
  }
}

void SubscriptionMatcher::Membership(const ShardedIndex& index, const Sub& sub,
                                     uint64_t cell, const geom::Point& pt,
                                     std::vector<CellRef>* scratch,
                                     std::vector<uint32_t>* out) {
  out->clear();
  if (!CoverageContains(sub.coverage, cell)) return;
  index.ProbeCell(cell, scratch);
  if (scratch->empty()) return;
  const int s = index.ShardOf(cell);
  const std::vector<uint32_t>& gids = index.shard_polygon_ids(s);
  const act::PolygonIndex* shard = index.shard_index(s);
  for (const CellRef& ref : *scratch) {
    const uint32_t gid = gids[ref.local_pid];
    if (!sub.watch_all &&
        !std::binary_search(sub.watched.begin(), sub.watched.end(), gid)) {
      continue;
    }
    // Interior cells are definitive; candidate cells refine through the
    // exact predicate — the same contract as the exact-mode join probe.
    if (!ref.interior &&
        !geom::ContainsPoint(shard->polygons()[ref.local_pid], pt)) {
      continue;
    }
    out->push_back(gid);
  }
  SortUnique(out);
}

std::optional<SubscriptionInfo> SubscriptionMatcher::Add(uint16_t dataset_id,
                                                         SubscriptionSpec spec,
                                                         EventSink sink) {
  using Selector = SubscriptionSpec::Selector;
  const ServiceCatalog::Registry* reg = catalog_->Find(dataset_id);
  if (reg == nullptr) return std::nullopt;
  uint64_t epoch = 0;
  std::shared_ptr<const ShardedIndex> snap = reg->Acquire(&epoch);
  if (snap == nullptr || epoch == 0) return std::nullopt;
  if (spec.selector == Selector::kPolygonIds) {
    if (spec.polygon_ids.empty()) return std::nullopt;
    for (uint32_t id : spec.polygon_ids) {
      if (id >= snap->num_polygons()) return std::nullopt;
    }
  }
  if (spec.selector == Selector::kCellRange && spec.cell_lo > spec.cell_hi) {
    return std::nullopt;
  }

  auto sub = std::make_shared<Sub>();
  sub->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  sub->dataset = dataset_id;
  sub->spec = std::move(spec);
  sub->sink = std::move(sink);
  BuildCoverage(*snap, sub.get());
  sub->epoch = epoch;

  SubscriptionInfo info;
  info.id = sub->id;
  info.epoch = epoch;
  info.watched_polygons = static_cast<uint32_t>(
      sub->watch_all ? snap->num_polygons() : sub->watched.size());
  info.coverage_intervals = static_cast<uint32_t>(sub->coverage.size());
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    subs_.emplace(sub->id, std::move(sub));
  }
  active_.fetch_add(1, std::memory_order_relaxed);
  return info;
}

bool SubscriptionMatcher::Remove(uint64_t subscription_id) {
  std::shared_ptr<Sub> sub;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = subs_.find(subscription_id);
    if (it == subs_.end()) return false;
    sub = std::move(it->second);
    subs_.erase(it);
  }
  active_.fetch_sub(1, std::memory_order_relaxed);
  {
    // An in-flight Process holds mu while delivering; taking it here means
    // no delivery *starts* after Remove returns.
    std::lock_guard<std::mutex> lock(sub->mu);
    sub->sink = nullptr;
  }
  return true;
}

bool SubscriptionMatcher::HasSubscriptions(uint16_t dataset_id) const {
  if (active_.load(std::memory_order_relaxed) == 0) return false;
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& [id, sub] : subs_) {
    if (sub->dataset == dataset_id) return true;
  }
  return false;
}

std::vector<std::shared_ptr<SubscriptionMatcher::Sub>>
SubscriptionMatcher::SubsFor(uint16_t dataset_id) const {
  std::vector<std::shared_ptr<Sub>> out;
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& [id, sub] : subs_) {
    if (sub->dataset == dataset_id) out.push_back(sub);
  }
  return out;
}

void SubscriptionMatcher::Process(Sub* sub, const ShardedIndex& index,
                                  uint64_t epoch,
                                  std::span<const uint64_t> cell_ids,
                                  std::span<const geom::Point> points) {
  if (sub->sink == nullptr) return;
  EventBatch batch;
  std::vector<CellRef> scratch;
  std::vector<uint32_t> now, gone, came;
  const bool want_leave = sub->spec.mode != SubscriptionMode::kEnterOnly;
  const bool want_enter = sub->spec.mode != SubscriptionMode::kLeaveOnly;
  auto emit_diff = [&](uint32_t track_id, const std::vector<uint32_t>& before,
                       const std::vector<uint32_t>& after) {
    gone.clear();
    came.clear();
    std::set_difference(before.begin(), before.end(), after.begin(),
                        after.end(), std::back_inserter(gone));
    std::set_difference(after.begin(), after.end(), before.begin(),
                        before.end(), std::back_inserter(came));
    if (want_leave) {
      for (uint32_t g : gone) {
        batch.events.push_back({GeoEventKind::kLeave, track_id, g});
      }
    }
    if (want_enter) {
      for (uint32_t g : came) {
        batch.events.push_back({GeoEventKind::kEnter, track_id, g});
      }
    }
  };

  // Never regress: a worker can reach here holding a snapshot acquired
  // *before* a swap that another worker already applied to this
  // subscription. Rebuilding coverage against that older snapshot would
  // roll the subscription back and emit phantom LEAVE/ENTER transitions
  // that the next batch at the new epoch reverses again. Callers
  // re-acquire the current snapshot when they detect this; the guard
  // keeps any future caller from regressing state.
  if (epoch < sub->epoch) return;
  if (epoch > sub->epoch) {
    // The snapshot moved under us: re-resolve coverage, then re-evaluate
    // every known track so removals LEAVE and additions ENTER without any
    // point traffic.
    BuildCoverage(index, sub);
    sub->epoch = epoch;
    for (size_t t = 0; t < sub->tracks.size(); ++t) {
      Track& tr = sub->tracks[t];
      if (!tr.known) continue;
      Membership(index, *sub, tr.cell, tr.point, &scratch, &now);
      emit_diff(static_cast<uint32_t>(t), tr.inside, now);
      tr.inside = now;
    }
  }

  const size_t n = std::min(cell_ids.size(), points.size());
  if (n > sub->tracks.size()) sub->tracks.resize(n);
  for (size_t t = 0; t < n; ++t) {
    Track& tr = sub->tracks[t];
    // Within one epoch, membership is a pure function of (coverage,
    // position): a track reporting the position it already holds cannot
    // transition, so skip its probe outright. Fleets are mostly
    // stationary from one batch to the next, which makes this the
    // difference between O(fleet) and O(moved) matcher work per batch.
    if (tr.known && tr.cell == cell_ids[t] && tr.point == points[t]) {
      continue;
    }
    Membership(index, *sub, cell_ids[t], points[t], &scratch, &now);
    emit_diff(static_cast<uint32_t>(t), tr.inside, now);
    tr.known = true;
    tr.cell = cell_ids[t];
    tr.point = points[t];
    tr.inside = now;
  }

  if (batch.events.empty()) return;
  batch.subscription_id = sub->id;
  batch.epoch = epoch;
  batch.first_seq = sub->next_seq;
  sub->next_seq += batch.events.size();
  events_emitted_.fetch_add(batch.events.size(), std::memory_order_relaxed);
  sub->sink(std::move(batch));
}

void SubscriptionMatcher::OnPointBatch(uint16_t dataset_id,
                                       std::span<const uint64_t> cell_ids,
                                       std::span<const geom::Point> points) {
  if (active_.load(std::memory_order_relaxed) == 0) return;
  std::vector<std::shared_ptr<Sub>> subs = SubsFor(dataset_id);
  if (subs.empty()) return;
  const ServiceCatalog::Registry* reg = catalog_->Find(dataset_id);
  if (reg == nullptr) return;
  uint64_t epoch = 0;
  std::shared_ptr<const ShardedIndex> snap = reg->Acquire(&epoch);
  if (snap == nullptr) return;
  for (auto& sub : subs) {
    std::lock_guard<std::mutex> lock(sub->mu);
    // Our snapshot lost the race with a swap another worker has already
    // applied to this subscription. Registry epochs are monotone, so
    // re-acquiring yields a snapshot at least as new as sub->epoch —
    // the batch's positions still land, just against the fresher index.
    if (epoch < sub->epoch) {
      snap = reg->Acquire(&epoch);
      if (snap == nullptr) return;
    }
    Process(sub.get(), *snap, epoch, cell_ids, points);
  }
}

void SubscriptionMatcher::OnEpochSwap(uint16_t dataset_id) {
  if (active_.load(std::memory_order_relaxed) == 0) return;
  std::vector<std::shared_ptr<Sub>> subs = SubsFor(dataset_id);
  if (subs.empty()) return;
  const ServiceCatalog::Registry* reg = catalog_->Find(dataset_id);
  if (reg == nullptr) return;
  uint64_t epoch = 0;
  std::shared_ptr<const ShardedIndex> snap = reg->Acquire(&epoch);
  if (snap == nullptr) return;
  for (auto& sub : subs) {
    std::lock_guard<std::mutex> lock(sub->mu);
    // Same stale-snapshot race as OnPointBatch: never hand Process an
    // epoch older than what the subscription has already seen.
    if (epoch < sub->epoch) {
      snap = reg->Acquire(&epoch);
      if (snap == nullptr) return;
    }
    Process(sub.get(), *snap, epoch, {}, {});
  }
}

void SubscriptionMatcher::RegisterMetrics(
    util::MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  registry->RegisterGaugeFn(
      "active_subscriptions", "Standing geofence queries registered", "",
      [this] { return static_cast<double>(active_subscriptions()); });
  registry->RegisterCounterFn(
      "subscription_events_emitted_total",
      "ENTER/LEAVE transitions computed by the matcher", "",
      [this] { return events_emitted(); });
}

}  // namespace actjoin::service
