// The three load phases, each against its own in-process serving stack
// (JoinService + JoinServer on loopback) over the snapshots set-up built.
//
//   bulk   closed loop: one connection keeps `bulk_inflight` large exact
//          JOIN_BATCH requests against census in flight.
//   fleet  open loop: one connection sends one fleet tick (raw
//          coordinates encoded with Grid::CellAt) per due time against
//          neighborhoods and holds a SUBSCRIBE that pushes ENTER/LEAVE
//          events; after the last round a rate ladder looks for the
//          highest sustainable rate.
//   churn  one connection runs JOIN_DATASETS (neighborhoods x census)
//          closed loop; a second runs ADD_POLYGONS / REMOVE_POLYGONS
//          cycles on census at a fixed rate while a Checkpointer persists
//          deltas.
//
// A pass runs the phases in interleaved rounds (bulk, fleet, churn, bulk,
// ...), each phase keeping its stack, connections and state across
// rounds, so every metric samples the whole run rather than one stretch
// of it. Every reply is checked against the scenario's oracles; failures
// land in the phase's Tally.

#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

#include <memory>
#include <string>

#include "common.h"
#include "net/join_server.h"
#include "scenario.h"
#include "service/join_service.h"

namespace perfbench {

/// The immutable indexes set-up built; every phase serves these.
struct Snapshots {
  std::shared_ptr<const ac::service::ShardedIndex> census;
  std::shared_ptr<const ac::service::ShardedIndex> neighborhoods;
};

/// Server thread counts of one phase. The host has 4 cores; the load
/// generator keeps at most two busy, the server gets the rest.
struct StackConfig {
  int workers = 1;
  int io_threads = 1;
  size_t queue_capacity = 256;
};

/// Each phase's server. Bulk and churn spread requests over two workers;
/// the fleet runs one, because the ticks of one fleet must reach the
/// subscription matcher in send order, and a deep queue so overload on the
/// rate ladder shows as latency rather than refusals.
inline constexpr StackConfig kBulkStack{.workers = 2, .io_threads = 1};
inline constexpr StackConfig kFleetStack{
    .workers = 1, .io_threads = 1, .queue_capacity = 1 << 14};
inline constexpr StackConfig kChurnStack{.workers = 2, .io_threads = 1};

/// One serving stack: a JoinService with both datasets in its catalog and
/// a JoinServer on an ephemeral loopback port.
class Stack {
 public:
  Stack(const Snapshots& snaps, const StackConfig& cfg);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  bool Start(std::string* error);
  ac::service::JoinService& service() { return *service_; }
  ac::net::JoinServer& server() { return *server_; }
  uint16_t census_id() const { return census_id_; }
  uint16_t neighborhoods_id() const { return neighborhoods_id_; }

 private:
  std::unique_ptr<ac::service::JoinService> service_;
  std::unique_ptr<ac::net::JoinServer> server_;
  uint16_t census_id_ = 0;
  uint16_t neighborhoods_id_ = 0;
};

/// Server-reported timings of JOIN_BATCH replies (every JoinResult carries
/// them) and the client round trip minus both.
struct ServerSplit {
  Samples queue_wait_ms;
  Samples service_ms;
  Samples rtt_minus_server_ms;
};

struct BulkOutcome {
  Samples latency_ms;       // send -> decoded JOIN_RESULT
  Samples window_mpts;      // verified points/s per one-second window
  ServerSplit split;
  Tally tally;
};

struct FleetOutcome {
  Samples tick_ms;          // due time -> decoded JOIN_RESULT
  Samples event_ms;         // due time -> arrival of the tick's EVENT
  Samples lag_ms;           // send time - due time (generator health)
  double max_tick_rps = 0;
  int ladder_probes = 0;
  bool schedule_kept = true;
  ServerSplit split;
  Tally tally;
};

struct ChurnOutcome {
  Samples crossmatch_ms;    // send -> last PAIR_RESULT chunk reassembled
  Samples mutate_ms;        // send -> MUTATE_RESULT
  uint64_t mutations = 0;
  uint64_t store_bytes_written = 0;  // store directory growth over the run
  Tally tally;
};

enum class Phase { kBulk, kFleet, kChurn };

/// Phase lengths of one pass, each summed over the pass's rounds; the
/// workload picks them.
struct PhasePlan {
  double bulk_s = 0;
  double fleet_design_s = 0;
  double fleet_step_s = 0;   // one probe of the rate ladder
  double churn_s = 0;
  int rounds = 4;
};

struct PassResult {
  BulkOutcome bulk;
  FleetOutcome fleet;
  ChurnOutcome churn;
  Tally tally;
};

/// Runs the phases in `plan.rounds` interleaved rounds; `only` limits the
/// pass to one phase. `store_dir` hosts the churn phase's snapshot store
/// and is removed afterwards.
PassResult RunPass(const Scenario& sc, const Snapshots& snaps,
                   const PhasePlan& plan, const std::string& store_dir,
                   Tracer* tracer, const Phase* only = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
