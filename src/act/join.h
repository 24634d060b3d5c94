// Point-polygon join drivers (paper Listing 3 and Sec. 3.2/3.3).
//
// The join is an index nested loop: probe the cell index with each point's
// leaf cell id, walk the returned polygon references, and
//   * approximate mode: treat candidate hits as hits (no PIP test; the
//     distance of any false positive to its polygon is bounded by the
//     diagonal of the largest boundary cell), or
//   * exact mode: refine candidate hits with the O(edges) ray-tracing PIP
//     test.
//
// ExecuteJoin is templated over the index so ACT and the B-tree /
// sorted-vector baselines run byte-identical driver code; only Probe()
// differs. Multi-threading follows the paper: worker threads fetch batches
// of 16 points via an atomic counter and keep thread-local per-polygon
// counters that are aggregated at the end.

#ifndef ACTJOIN_ACT_JOIN_H_
#define ACTJOIN_ACT_JOIN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "act/lookup_table.h"
#include "act/tagged_entry.h"
#include "geometry/pip.h"
#include "geometry/polygon.h"
#include "util/parallel_for.h"
#include "util/timer.h"

namespace actjoin::act {

enum class JoinMode {
  kApproximate,  // paper Sec. 3.2 (__APPROX branch of Listing 3)
  kExact,        // paper Sec. 3.3
};

struct JoinOptions {
  JoinMode mode = JoinMode::kExact;
  /// Library-wide thread convention (same as BuildOptions.threads):
  /// 0 => util::DefaultThreadCount() (hardware concurrency), positive
  /// values are taken literally. Benchmarks that need a clean
  /// single-threaded measurement pass 1 explicitly.
  int threads = 0;
};

/// Join input: parallel arrays of leaf cell ids and planar coordinates
/// (x = lng, y = lat). Cell ids are precomputed at load time, exactly like
/// the paper's experimental setup.
struct JoinInput {
  std::span<const uint64_t> cell_ids;
  std::span<const geom::Point> points;

  uint64_t size() const { return cell_ids.size(); }
};

struct JoinStats {
  uint64_t num_points = 0;
  uint64_t matched_points = 0;   // points with >= 1 output pair
  uint64_t result_pairs = 0;
  uint64_t true_hit_refs = 0;    // refs answered by true-hit filtering
  uint64_t candidate_refs = 0;   // refs needing refinement (or approx emit)
  uint64_t pip_tests = 0;        // exact mode only
  uint64_t pip_hits = 0;
  uint64_t sth_points = 0;       // points that skipped refinement entirely
  double seconds = 0;
  std::vector<uint64_t> counts;  // per-polygon result counts

  /// Adds `other`'s scalar probe counters into this one — every field
  /// except num_points, seconds, and counts. The shared merge step of the
  /// sharded and cache-assisted executors, whose per-polygon counts need
  /// site-specific id remapping and so stay with the caller.
  void AccumulateCounters(const JoinStats& other) {
    matched_points += other.matched_points;
    result_pairs += other.result_pairs;
    true_hit_refs += other.true_hit_refs;
    candidate_refs += other.candidate_refs;
    pip_tests += other.pip_tests;
    pip_hits += other.pip_hits;
    sth_points += other.sth_points;
  }

  double ThroughputMps() const {
    return seconds > 0 ? num_points / seconds / 1e6 : 0;
  }
  /// Paper Table 7 metric: % of points with no candidate hits.
  double SthPercent() const {
    return num_points == 0 ? 0 : 100.0 * sth_points / num_points;
  }
};

/// Runs the join. `Index` must provide:
///   TaggedEntry Probe(uint64_t leaf_cell_id) const;
template <typename Index>
JoinStats ExecuteJoin(const Index& index, const LookupTable& table,
                      const JoinInput& input,
                      const std::vector<geom::Polygon>& polygons,
                      const JoinOptions& opts) {
  int threads = opts.threads <= 0 ? util::DefaultThreadCount() : opts.threads;
  const bool exact = opts.mode == JoinMode::kExact;
  const uint64_t n = input.size();

  // One cache line (at least) per worker: the counters are bumped per
  // probe, and neighbouring states must not share a line.
  struct alignas(64) ThreadState {
    std::vector<uint64_t> counts;
    uint64_t matched = 0, pairs = 0, true_refs = 0, cand_refs = 0;
    uint64_t pip_tests = 0, pip_hits = 0, sth = 0;
  };
  std::vector<ThreadState> states(threads);
  for (auto& s : states) s.counts.assign(polygons.size(), 0);

  util::WallTimer timer;
  util::ParallelFor(n, threads, [&](uint64_t begin, uint64_t end, int tid) {
    ThreadState& st = states[tid];
    for (uint64_t p = begin; p < end; ++p) {
      TaggedEntry entry = index.Probe(input.cell_ids[p]);
      if (entry == kSentinelEntry) {
        ++st.sth;  // no cell, no refinement needed
        continue;
      }
      uint64_t pairs_before = st.pairs;
      bool had_candidate = false;
      auto visit = [&](uint32_t pid, bool true_hit) {
        if (true_hit) {
          ++st.true_refs;
          ++st.counts[pid];
          ++st.pairs;
          return;
        }
        ++st.cand_refs;
        had_candidate = true;
        if (!exact) {
          // Approximate: emit the candidate as a hit.
          ++st.counts[pid];
          ++st.pairs;
          return;
        }
        ++st.pip_tests;
        if (geom::ContainsPoint(polygons[pid], input.points[p])) {
          ++st.pip_hits;
          ++st.counts[pid];
          ++st.pairs;
        }
      };
      switch (KindOf(entry)) {
        case EntryKind::kOneRef: {
          PolygonRef r = FirstRefOf(entry);
          visit(r.polygon_id, r.interior);
          break;
        }
        case EntryKind::kTwoRefs: {
          PolygonRef a = FirstRefOf(entry);
          PolygonRef b = SecondRefOf(entry);
          visit(a.polygon_id, a.interior);
          visit(b.polygon_id, b.interior);
          break;
        }
        case EntryKind::kTableOffset:
          table.VisitEntry(TableOffsetOf(entry), visit);
          break;
        case EntryKind::kPointer:
          break;  // unreachable: sentinel handled above
      }
      if (st.pairs != pairs_before) ++st.matched;
      if (!had_candidate) ++st.sth;
    }
  });

  JoinStats out;
  out.seconds = timer.ElapsedSeconds();
  out.num_points = n;
  out.counts.assign(polygons.size(), 0);
  for (const ThreadState& st : states) {
    out.matched_points += st.matched;
    out.result_pairs += st.pairs;
    out.true_hit_refs += st.true_refs;
    out.candidate_refs += st.cand_refs;
    out.pip_tests += st.pip_tests;
    out.pip_hits += st.pip_hits;
    out.sth_points += st.sth;
    for (size_t k = 0; k < out.counts.size(); ++k) {
      out.counts[k] += st.counts[k];
    }
  }
  return out;
}

/// Materializing variant used by tests and examples: returns (point
/// index, polygon id) pairs instead of counts. Single-threaded.
///
/// Ordering contract: the output is sorted ascending by (point index,
/// polygon id) and duplicate-free. This is a stable API guarantee, not an
/// implementation detail — ShardedIndex::JoinPairs and the join2 pair
/// producers promise the same shape, so any two producers of the same
/// predicate can be compared byte-for-byte (memcmp of the vectors).
template <typename Index>
std::vector<std::pair<uint64_t, uint32_t>> ExecuteJoinPairs(
    const Index& index, const LookupTable& table, const JoinInput& input,
    const std::vector<geom::Polygon>& polygons, JoinMode mode) {
  std::vector<std::pair<uint64_t, uint32_t>> out;
  const bool exact = mode == JoinMode::kExact;
  for (uint64_t p = 0; p < input.size(); ++p) {
    TaggedEntry entry = index.Probe(input.cell_ids[p]);
    if (entry == kSentinelEntry) continue;
    auto visit = [&](uint32_t pid, bool true_hit) {
      if (true_hit || !exact ||
          geom::ContainsPoint(polygons[pid], input.points[p])) {
        out.emplace_back(p, pid);
      }
    };
    switch (KindOf(entry)) {
      case EntryKind::kOneRef: {
        PolygonRef r = FirstRefOf(entry);
        visit(r.polygon_id, r.interior);
        break;
      }
      case EntryKind::kTwoRefs: {
        PolygonRef a = FirstRefOf(entry);
        PolygonRef b = SecondRefOf(entry);
        visit(a.polygon_id, a.interior);
        visit(b.polygon_id, b.interior);
        break;
      }
      case EntryKind::kTableOffset:
        table.VisitEntry(TableOffsetOf(entry), visit);
        break;
      case EntryKind::kPointer:
        break;
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Reference (index-free) nested-loop join; the oracle for all tests.
std::vector<std::pair<uint64_t, uint32_t>> BruteForceJoinPairs(
    const JoinInput& input, const std::vector<geom::Polygon>& polygons);

}  // namespace actjoin::act

#endif  // ACTJOIN_ACT_JOIN_H_
