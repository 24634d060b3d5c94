// Inputs and oracles of one benchmark run, all derived from --seed.
//
// A Scenario holds the two served polygon sets (a census analog and a
// neighborhoods analog from src/workloads), the bulk point batches with
// their reference counts, the fleet model that drives geofence ticks, and
// the churn mutations with their expected crossmatch answers. Building it
// is "data and oracle generation": it happens before set-up is timed.

#ifndef PERFBENCH_SCENARIO_H_
#define PERFBENCH_SCENARIO_H_

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "act/pipeline.h"
#include "geo/grid.h"
#include "geometry/point.h"
#include "geometry/polygon.h"
#include "service/join_service.h"
#include "service/sharded_index.h"
#include "service/subscription_matcher.h"
#include "util/random.h"
#include "workloads/datasets.h"

namespace perfbench {

namespace ac = actjoin;

/// Which reference answer to corrupt (the benchmark's negative check).
enum class Corrupt { kNone, kBulk, kFleet, kChurn };

/// Every size and rate the workloads use. Fixed per build of the
/// benchmark so two commits are measured on identical load; --tiny
/// shrinks them for the self-test.
struct Sizes {
  double census_scale = 0.1;        // ~3969 polygons, index > 2 MiB L2
  double neighborhoods_scale = 1.0; // 289 polygons, index < 2 MiB L2
  int num_shards = 8;
  int build_threads = 4;
  uint32_t bulk_batch_points = 32768;
  uint32_t bulk_distinct_batches = 16;
  int bulk_inflight = 4;
  uint32_t fleet_devices = 1024;
  double fleet_move_share = 0.125;  // devices that move in one tick
  double fleet_step_deg = 0.004;    // ~340 m per move
  double design_tick_rps = 500;
  double tick_limit_ms = 5;         // p90 limit behind max_tick_rps
  uint32_t churn_polygons_per_mutation = 4;
  double mutation_rps = 5;
  uint32_t pair_page_size = 1024;
  int setup_reps = 5;

  static Sizes Tiny();
};

/// Per-polygon containment counts of one neighborhoods-style polygon set,
/// answered from scratch with geom::ContainsPoint behind a bucket grid of
/// polygon MBRs (the grid only prunes; ContainsPoint decides).
class MembershipOracle {
 public:
  explicit MembershipOracle(const std::vector<ac::geom::Polygon>* polygons);
  /// Sorted ids of the polygons containing p.
  void Members(const ac::geom::Point& p, std::vector<uint32_t>* out) const;

 private:
  const std::vector<ac::geom::Polygon>* polygons_;
  ac::geom::Rect extent_;
  int dim_ = 64;
  std::vector<std::vector<uint32_t>> buckets_;
};

/// One device's new position in one tick.
struct Move {
  uint32_t device = 0;
  ac::geom::Point pos;
};

/// Seeded fleet motion: every device walks with a persistent heading and
/// bounces off the extent; each tick a fixed share of devices moves one
/// step. The first Step reports every device at its start position (its
/// first sighting).
class FleetModel {
 public:
  FleetModel(const ac::geom::Rect& extent, const Sizes& sizes, uint64_t seed);
  /// Advances one tick; fills the moved devices in ascending device order.
  void Step(std::vector<Move>* moves);
  const std::vector<ac::geom::Point>& positions() const { return pos_; }

 private:
  ac::geom::Rect extent_;
  double share_;
  double step_;
  ac::util::Rng rng_;
  std::vector<ac::geom::Point> pos_;
  std::vector<ac::geom::Point> heading_;
  bool started_ = false;
};

/// Replays ticks against the membership oracle and yields, per tick, the
/// expected JOIN_RESULT counts and ENTER/LEAVE events in the matcher's
/// documented order (ascending track, LEAVEs before ENTERs, ascending
/// polygon id).
class FleetOracle {
 public:
  FleetOracle(const std::vector<ac::geom::Polygon>* polygons,
              uint32_t devices);
  /// Applies one tick's moves. On the first call every device is new, so
  /// `moves` must list every device.
  void Apply(const std::vector<Move>& moves,
             std::vector<ac::service::GeoEvent>* events);
  const std::vector<uint64_t>& counts() const { return counts_; }

 private:
  MembershipOracle oracle_;
  std::vector<std::vector<uint32_t>> inside_;
  std::vector<uint64_t> counts_;
  std::vector<uint32_t> scratch_;
};

using PairList = std::vector<std::pair<uint32_t, uint32_t>>;

struct Scenario {
  uint64_t seed = 0;
  Sizes sizes;
  ac::geo::Grid grid;
  ac::service::ShardingOptions sharding;
  ac::wl::PolygonDataset census;
  ac::wl::PolygonDataset neighborhoods;

  // bulk_census_exact: exact JOIN_BATCH requests with precomputed cells,
  // and the per-polygon counts PolygonIndex::Join gives for each.
  std::vector<ac::service::QueryBatch> bulk_batches;
  std::vector<std::vector<uint64_t>> bulk_reference;
  /// The unsharded census index the reference counts come from (also the
  /// trie the layer ladder probes).
  std::shared_ptr<const ac::act::PolygonIndex> census_reference;

  // geofence_fleet: seed of the FleetModel both load and layers replay.
  uint64_t fleet_seed = 0;

  // churn_crossmatch: polygons each ADD_POLYGONS sends (the next k
  // REMOVE_POLYGONS take the ids back out one by one), the brute-force
  // crossmatch of the base census, and each added batch's own pairs
  // (census-side ids local to the batch).
  std::vector<std::vector<ac::geom::Polygon>> churn_adds;
  PairList base_pairs;
  std::vector<PairList> add_pairs;

  Corrupt corrupt = Corrupt::kNone;
  /// Reference self-check outcome (PolygonIndex::Join vs brute force on a
  /// seeded sample); a mismatch fails the run.
  bool reference_verified = false;
  std::string reference_note;

  /// Expected JOIN_DATASETS answer after `mutations_applied` churn
  /// mutations: the base set plus what is left of the current add batch
  /// (cycles of one ADD of k polygons, then k single-id REMOVEs).
  PairList ExpectedPairs(uint64_t mutations_applied) const;
};

/// Generates polygons, points, mutations and every oracle from the seed.
std::unique_ptr<Scenario> BuildScenario(uint64_t seed, const Sizes& sizes,
                                        Corrupt corrupt);

}  // namespace perfbench

#endif  // PERFBENCH_SCENARIO_H_
