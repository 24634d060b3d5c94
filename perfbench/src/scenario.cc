#include "scenario.h"

#include <algorithm>
#include <cmath>

#include "act/join.h"
#include "act/pipeline.h"
#include "geometry/pip.h"
#include "join2/cross_match.h"

namespace perfbench {

using ac::geom::Point;
using ac::geom::Polygon;
using ac::geom::Rect;

Sizes Sizes::Tiny() {
  Sizes s;
  s.census_scale = 0.02;
  s.neighborhoods_scale = 0.5;
  s.bulk_batch_points = 4096;
  s.bulk_distinct_batches = 4;
  s.bulk_inflight = 2;
  s.fleet_devices = 128;
  s.design_tick_rps = 200;
  s.mutation_rps = 10;
  s.pair_page_size = 64;
  s.setup_reps = 1;
  return s;
}

MembershipOracle::MembershipOracle(const std::vector<Polygon>* polygons)
    : polygons_(polygons), buckets_(static_cast<size_t>(dim_ * dim_)) {
  for (const Polygon& p : *polygons_) {
    extent_.Expand(p.mbr().lo);
    extent_.Expand(p.mbr().hi);
  }
  auto cell = [&](double v, double lo, double hi) {
    const double f = hi > lo ? (v - lo) / (hi - lo) : 0;
    return std::clamp(static_cast<int>(f * dim_), 0, dim_ - 1);
  };
  for (uint32_t id = 0; id < polygons_->size(); ++id) {
    const Rect& m = (*polygons_)[id].mbr();
    const int x0 = cell(m.lo.x, extent_.lo.x, extent_.hi.x);
    const int x1 = cell(m.hi.x, extent_.lo.x, extent_.hi.x);
    const int y0 = cell(m.lo.y, extent_.lo.y, extent_.hi.y);
    const int y1 = cell(m.hi.y, extent_.lo.y, extent_.hi.y);
    for (int y = y0; y <= y1; ++y) {
      for (int x = x0; x <= x1; ++x) {
        buckets_[static_cast<size_t>(y * dim_ + x)].push_back(id);
      }
    }
  }
}

void MembershipOracle::Members(const Point& p,
                               std::vector<uint32_t>* out) const {
  out->clear();
  if (!extent_.Contains(p)) return;
  const auto cell = [&](double v, double lo, double hi) {
    const double f = hi > lo ? (v - lo) / (hi - lo) : 0;
    return std::clamp(static_cast<int>(f * dim_), 0, dim_ - 1);
  };
  const int x = cell(p.x, extent_.lo.x, extent_.hi.x);
  const int y = cell(p.y, extent_.lo.y, extent_.hi.y);
  for (uint32_t id : buckets_[static_cast<size_t>(y * dim_ + x)]) {
    if (ac::geom::ContainsPoint((*polygons_)[id], p)) out->push_back(id);
  }
  std::sort(out->begin(), out->end());
}

FleetModel::FleetModel(const Rect& extent, const Sizes& sizes, uint64_t seed)
    : extent_(extent),
      share_(sizes.fleet_move_share),
      step_(sizes.fleet_step_deg),
      rng_(seed) {
  pos_.reserve(sizes.fleet_devices);
  heading_.reserve(sizes.fleet_devices);
  // Start clustered like taxi traffic, so devices sit inside polygons and
  // many start near shared boundaries.
  ac::wl::PointSet start = ac::wl::TaxiPoints(
      extent, sizes.fleet_devices, ac::geo::Grid(), rng_.Next());
  for (uint32_t d = 0; d < sizes.fleet_devices; ++d) {
    pos_.push_back(start.points()[d]);
    const double angle = rng_.Uniform(0, 2 * M_PI);
    heading_.push_back({std::cos(angle), std::sin(angle)});
  }
}

void FleetModel::Step(std::vector<Move>* moves) {
  moves->clear();
  if (!started_) {
    started_ = true;
    for (uint32_t d = 0; d < pos_.size(); ++d) moves->push_back({d, pos_[d]});
    return;
  }
  for (uint32_t d = 0; d < pos_.size(); ++d) {
    if (rng_.NextDouble() >= share_) continue;
    if (rng_.NextDouble() < 0.1) {
      const double angle = rng_.Uniform(0, 2 * M_PI);
      heading_[d] = {std::cos(angle), std::sin(angle)};
    }
    Point next{pos_[d].x + heading_[d].x * step_,
               pos_[d].y + heading_[d].y * step_};
    if (next.x < extent_.lo.x || next.x > extent_.hi.x) {
      heading_[d].x = -heading_[d].x;
      next.x = pos_[d].x + heading_[d].x * step_;
    }
    if (next.y < extent_.lo.y || next.y > extent_.hi.y) {
      heading_[d].y = -heading_[d].y;
      next.y = pos_[d].y + heading_[d].y * step_;
    }
    pos_[d] = next;
    moves->push_back({d, next});
  }
}

FleetOracle::FleetOracle(const std::vector<Polygon>* polygons,
                         uint32_t devices)
    : oracle_(polygons), inside_(devices), counts_(polygons->size(), 0) {}

void FleetOracle::Apply(const std::vector<Move>& moves,
                        std::vector<ac::service::GeoEvent>* events) {
  using ac::service::GeoEvent;
  using ac::service::GeoEventKind;
  events->clear();
  for (const Move& m : moves) {
    oracle_.Members(m.pos, &scratch_);
    std::vector<uint32_t>& before = inside_[m.device];
    // LEAVEs then ENTERs, each ascending by polygon id.
    std::vector<uint32_t> left, entered;
    std::set_difference(before.begin(), before.end(), scratch_.begin(),
                        scratch_.end(), std::back_inserter(left));
    std::set_difference(scratch_.begin(), scratch_.end(), before.begin(),
                        before.end(), std::back_inserter(entered));
    for (uint32_t pid : left) {
      events->push_back({GeoEventKind::kLeave, m.device, pid});
      --counts_[pid];
    }
    for (uint32_t pid : entered) {
      events->push_back({GeoEventKind::kEnter, m.device, pid});
      ++counts_[pid];
    }
    before = scratch_;
  }
}

PairList Scenario::ExpectedPairs(uint64_t mutations_applied) const {
  if (mutations_applied == 0) return base_pairs;
  const uint64_t k = sizes.churn_polygons_per_mutation;
  const uint64_t m = (mutations_applied - 1) / (k + 1);
  const uint64_t removed = (mutations_applied - 1) % (k + 1);
  const uint32_t first_id =
      static_cast<uint32_t>(census.polygons.size() + m * k);
  PairList out = base_pairs;
  for (const auto& [a, local] : add_pairs[m]) {
    if (local >= removed) out.emplace_back(a, first_id + local);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::unique_ptr<Scenario> BuildScenario(uint64_t seed, const Sizes& sizes,
                                        Corrupt corrupt) {
  auto s = std::make_unique<Scenario>();
  s->seed = seed;
  s->sizes = sizes;
  s->corrupt = corrupt;
  ac::util::Rng rng(ac::util::SplitMix64(seed));

  s->census = ac::wl::Census(sizes.census_scale, rng.Next());
  s->neighborhoods = ac::wl::Neighborhoods(sizes.neighborhoods_scale,
                                           rng.Next());

  // One index configuration for both served datasets: ACT2 fanout and
  // modest covering budgets keep census a few MiB (well past one core's
  // L2) and neighborhoods a few hundred KiB (inside it).
  s->sharding.num_shards = sizes.num_shards;
  s->sharding.build.threads = sizes.build_threads;
  s->sharding.build.act.bits_per_level = 4;
  s->sharding.build.approx.max_covering_cells = 32;
  s->sharding.build.approx.max_interior_cells = 32;

  // --- bulk: taxi-clustered points with precomputed leaf cells.
  const uint64_t bulk_points =
      uint64_t{sizes.bulk_batch_points} * sizes.bulk_distinct_batches;
  ac::wl::PointSet taxi =
      ac::wl::TaxiPoints(s->census.mbr, bulk_points, s->grid, rng.Next());
  s->census_reference = std::make_shared<const ac::act::PolygonIndex>(
      ac::act::PolygonIndex::Build(s->census.polygons, s->grid,
                                   s->sharding.build));
  const ac::act::PolygonIndex& reference = *s->census_reference;
  for (uint32_t b = 0; b < sizes.bulk_distinct_batches; ++b) {
    const uint64_t begin = uint64_t{b} * sizes.bulk_batch_points;
    const uint64_t end = begin + sizes.bulk_batch_points;
    ac::service::QueryBatch batch;
    batch.cell_ids.assign(taxi.cell_ids().begin() + begin,
                          taxi.cell_ids().begin() + end);
    batch.points.assign(taxi.points().begin() + begin,
                        taxi.points().begin() + end);
    batch.mode = ac::act::JoinMode::kExact;
    ac::act::JoinInput in{batch.cell_ids, batch.points};
    s->bulk_reference.push_back(
        reference.Join(in, {ac::act::JoinMode::kExact, sizes.build_threads})
            .counts);
    s->bulk_batches.push_back(std::move(batch));
  }
  // The reference itself is checked against the index-free nested loop on
  // a seeded sample of the bulk points.
  {
    const uint32_t sample_n = std::min<uint64_t>(1024, bulk_points);
    std::vector<uint64_t> cells;
    std::vector<Point> pts;
    for (uint32_t i = 0; i < sample_n; ++i) {
      const uint64_t k = rng.UniformInt(bulk_points);
      cells.push_back(taxi.cell_ids()[k]);
      pts.push_back(taxi.points()[k]);
    }
    ac::act::JoinInput in{cells, pts};
    auto indexed = reference.JoinPairs(in, ac::act::JoinMode::kExact);
    auto brute = ac::act::BruteForceJoinPairs(in, s->census.polygons);
    std::sort(brute.begin(), brute.end());
    s->reference_verified = indexed == brute;
    s->reference_note = "reference PolygonIndex::Join vs BruteForceJoinPairs on " +
                        std::to_string(sample_n) + " sampled points: " +
                        (s->reference_verified ? "equal" : "MISMATCH");
  }
  if (corrupt == Corrupt::kBulk) ++s->bulk_reference[0][0];

  s->fleet_seed = rng.Next();

  // --- churn: polygons from a second census draw over the same extent,
  // k adjacent ones per ADD (adjacent ids are neighbours in the
  // partition, so one mutation touches one area).
  ac::wl::PolygonDataset donor =
      ac::wl::Census(sizes.census_scale, rng.Next());
  const uint32_t k = sizes.churn_polygons_per_mutation;
  constexpr uint32_t kAddBatches = 256;
  for (uint32_t m = 0; m < kAddBatches; ++m) {
    const uint64_t start = rng.UniformInt(donor.polygons.size() - k);
    std::vector<Polygon> batch(donor.polygons.begin() + start,
                               donor.polygons.begin() + start + k);
    s->add_pairs.push_back(ac::join2::BruteForceCrossMatch(
        s->neighborhoods.polygons, batch,
        ac::join2::CrossMatchMode::kIntersects));
    s->churn_adds.push_back(std::move(batch));
  }
  s->base_pairs = ac::join2::BruteForceCrossMatch(
      s->neighborhoods.polygons, s->census.polygons,
      ac::join2::CrossMatchMode::kIntersects);
  if (corrupt == Corrupt::kChurn && !s->base_pairs.empty()) {
    s->base_pairs.pop_back();
  }
  return s;
}

}  // namespace perfbench
