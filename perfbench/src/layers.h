// Single-layer measurements and the layer ladder (traced runs only).
//
// Every number here comes from the benchmark calling one module's public
// functions on the workload's own inputs, with a span around each call:
// geo encode, trie probes, ExecuteJoin, ShardedIndex::Join, JoinService
// Submit, the wire codecs, a loopback AsyncJoinClient, the subscription
// matcher, delta apply/publish, checkpoints and the crossmatch views.
// The ladder then prints the point path rung by rung, each with its delta
// over the rung below and the base of every ratio.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>

#include "common.h"
#include "phases.h"
#include "scenario.h"

namespace perfbench {

/// Which point requests the point-path layers replay: the bulk census
/// batches, or fleet ticks against neighborhoods.
enum class PointStream { kBulk, kFleet };

/// Fills `report` with every layer metric that does not come from a load
/// phase and prints the ladder. `scratch_dir` hosts a throwaway snapshot
/// store.
void MeasureLayers(const Scenario& sc, const Snapshots& snaps,
                   PointStream stream, const std::string& scratch_dir,
                   Report* report, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
