// Snapshot registry: MVCC-style hot swap of immutable indexes.
//
// The library's indexes are immutable after construction (the trie performs
// all adaptation at build time), which makes concurrent serving a snapshot
// problem, not a locking problem. Readers Acquire() a refcounted snapshot
// (std::shared_ptr pins it); an updater builds a replacement off to the
// side — PolygonIndex::WithDelta (via ShardedIndex::ApplyDelta), a
// Clone() + Train, or a fresh ShardedIndex::Build — and Publish()es it with a single pointer
// swap inside a short critical section. In-flight queries keep probing the
// snapshot they pinned; the old index is freed when its last reference
// drops. This is the shared-snapshot discipline of MVCC databases scaled
// down to one pointer: a swap never stalls a running join and a join
// never delays a swap beyond the pointer-copy critical section.
//
// Each Publish advances a monotonically increasing epoch, so results can
// be tagged with the index version that served them (epoch 0 means
// "nothing published yet").

#ifndef ACTJOIN_SERVICE_INDEX_REGISTRY_H_
#define ACTJOIN_SERVICE_INDEX_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "act/pipeline.h"
#include "util/check.h"

namespace actjoin::service {

/// Generic epoch/refcount registry over any immutable index type. The
/// mutex guards only the pointer copy and epoch bump — a few nanoseconds —
/// never a query or a build.
template <typename IndexT>
class SnapshotRegistry {
 public:
  using Snapshot = std::shared_ptr<const IndexT>;

  SnapshotRegistry() = default;
  explicit SnapshotRegistry(Snapshot initial) {
    if (initial != nullptr) Publish(std::move(initial));
  }

  SnapshotRegistry(const SnapshotRegistry&) = delete;
  SnapshotRegistry& operator=(const SnapshotRegistry&) = delete;

  /// Pins and returns the current snapshot (null before the first
  /// Publish). If `epoch_out` is non-null it receives the epoch the
  /// snapshot was published at, consistent with the returned pointer.
  Snapshot Acquire(uint64_t* epoch_out = nullptr) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (epoch_out != nullptr) *epoch_out = epoch_;
    return current_;
  }

  /// Swaps in a new snapshot and returns its epoch. In-flight readers are
  /// unaffected: they hold references to the previous snapshot, which is
  /// destroyed only when the last reference drops.
  uint64_t Publish(Snapshot next) {
    ACT_CHECK(next != nullptr);
    Snapshot retired;  // destroyed after the lock is released
    std::lock_guard<std::mutex> lock(mu_);
    retired = std::exchange(current_, std::move(next));
    return ++epoch_;
  }

  uint64_t epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return epoch_;
  }

 private:
  mutable std::mutex mu_;
  Snapshot current_;
  uint64_t epoch_ = 0;
};

/// The registry shape described by the serving-layer design: snapshots of
/// the paper's single-trie index. JoinService instantiates the same
/// template over ShardedIndex.
using IndexRegistry = SnapshotRegistry<act::PolygonIndex>;

}  // namespace actjoin::service

#endif  // ACTJOIN_SERVICE_INDEX_REGISTRY_H_
