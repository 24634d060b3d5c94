// Per-request tracing for JOIN_DATASETS crossmatch requests — the
// polygon×polygon analogue of service/trace.h. The seven stages tile the
// request's server-side lifetime: admission check, payload decode, queue
// wait, snapshot pin + probe-surface lookup, synchronized descent (through
// candidate dedup), predicate refinement, and the response stream's
// encode+delivery. The same acceptance contract as JOIN_BATCH traces
// applies: the sum lands within 10% of a loopback client's wall time.
//
// Lives in its own header (not dataset_cross_matcher.h) so the wire codec
// can carry the trace without pulling the whole matcher in.

#ifndef ACTJOIN_JOIN2_CROSS_MATCH_TRACE_H_
#define ACTJOIN_JOIN2_CROSS_MATCH_TRACE_H_

#include <array>
#include <cstdint>

namespace actjoin::join2 {

enum class CrossMatchStage : uint8_t {
  kAdmission = 0,  // admission-control decision, both sides charged
  kDecode = 1,     // wire payload -> CrossMatchRequest
  kQueue = 2,      // service-queue wait until a worker picks it up
  kPin = 3,        // snapshot pin + view-cache lookup, both sides; includes
                   // the IntervalView build only on a cache miss
  kDescend = 4,    // synchronized dual-trie descent + candidate dedup
  kRefine = 5,     // polygon-polygon predicate evaluation + output assembly
  kStream = 6,     // PAIR_RESULT chunk encode + delivery to the event loop
};

inline constexpr int kNumCrossMatchStages = 7;

inline const char* CrossMatchStageName(CrossMatchStage s) {
  switch (s) {
    case CrossMatchStage::kAdmission: return "admission";
    case CrossMatchStage::kDecode: return "decode";
    case CrossMatchStage::kQueue: return "queue";
    case CrossMatchStage::kPin: return "pin";
    case CrossMatchStage::kDescend: return "descend";
    case CrossMatchStage::kRefine: return "refine";
    case CrossMatchStage::kStream: return "stream";
  }
  return "?";
}

/// Stage breakdown for one crossmatch. Plain data: copied into
/// CrossMatchOutcome and encoded in the final PAIR_RESULT chunk when
/// enabled.
struct CrossMatchTrace {
  uint64_t request_id = 0;
  bool enabled = false;
  /// Wall time per stage, microseconds, indexed by CrossMatchStage.
  std::array<double, kNumCrossMatchStages> stage_us{};

  double& at(CrossMatchStage s) { return stage_us[static_cast<int>(s)]; }
  double at(CrossMatchStage s) const { return stage_us[static_cast<int>(s)]; }

  double TotalMicros() const {
    double total = 0;
    for (double v : stage_us) total += v;
    return total;
  }

  friend bool operator==(const CrossMatchTrace&,
                         const CrossMatchTrace&) = default;
};

}  // namespace actjoin::join2

#endif  // ACTJOIN_JOIN2_CROSS_MATCH_TRACE_H_
