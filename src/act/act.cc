#include "act/act.h"

#include <algorithm>
#include <cstdlib>

#include "util/bitops.h"
#include "util/check.h"

namespace actjoin::act {

using geo::CellId;

namespace {

// Any non-null pointer-tagged entry: marks a face root that has a node
// during the counting pass, which allocates nothing.
constexpr TaggedEntry kPointerPlaceholder = 4;

}  // namespace

AdaptiveCellTrie::AdaptiveCellTrie(const EncodedCovering& enc,
                                   const ActOptions& opts)
    : opts_(opts) {
  ACT_CHECK_MSG(opts.bits_per_level >= 1 && opts.bits_per_level <= 8,
                "bits_per_level must be in [1, 8]");
  bits_per_level_ = opts.bits_per_level;
  fanout_ = 1 << bits_per_level_;
  slot_mask_ = static_cast<uint64_t>(fanout_ - 1);

  const auto& cells = enc.cells;
  if (opts.use_root_prefix) {
    // Longest common path-key prefix of each face's cells, rounded down to
    // node granularity (the paper stores a common prefix at the root
    // level only). For a single-cell face the prefix is the whole key.
    size_t i = 0;
    while (i < cells.size()) {
      const int f = cells[i].first.face();
      size_t j = i;
      while (j < cells.size() && cells[j].first.face() == f) ++j;
      int len_first = 0, len_last = 0;
      uint64_t key_first = cells[i].first.PathKey(&len_first);
      uint64_t key_last = cells[j - 1].first.PathKey(&len_last);
      int cpl = (j - i == 1) ? len_first
                             : util::CommonPrefixLength(key_first, key_last);
      Face& face = faces_[f];
      face.prefix_bits = (cpl / bits_per_level_) * bits_per_level_;
      face.prefix =
          face.prefix_bits == 0 ? 0 : (key_first >> (64 - face.prefix_bits));
      i = j;
    }
  }

  const uint64_t node_count = LayOut(enc, /*fill=*/false, nullptr);
  const uint64_t bytes =
      node_count * static_cast<uint64_t>(fanout_) * sizeof(TaggedEntry);
  TaggedEntry* nodes = nullptr;
  if (bytes > 0) {
    // Zeroed memory is all kSentinelEntry. Over-allocated to align the
    // array to a cache line.
    constexpr uintptr_t kAlign = 64;
    storage_.reset(std::calloc(bytes + kAlign, 1));
    ACT_CHECK_MSG(storage_ != nullptr, "out of memory for trie nodes");
    const auto raw = reinterpret_cast<uintptr_t>(storage_.get());
    nodes = reinterpret_cast<TaggedEntry*>((raw + kAlign - 1) & ~(kAlign - 1));
  }
  ACT_CHECK(LayOut(enc, /*fill=*/true, nodes) == node_count);
}

uint64_t AdaptiveCellTrie::LayOut(const EncodedCovering& enc, bool fill,
                                  TaggedEntry* nodes) {
  const auto& cells = enc.cells;
  // Locals, not stats_ fields: the node stores below are uint64_t too, so
  // the compiler could not keep member counters in registers.
  uint64_t node_count = 0, value_slots = 0, pointer_slots = 0;
  uint64_t value_depth_sum = 0;
  // Per depth: nodes, and occupied slots (values + child pointers).
  uint64_t nodes_by_depth[64 + 1] = {}, used_by_depth[64 + 1] = {};

  // Nodes on the previous cell's path, by depth (at most one per key bit).
  TaggedEntry* path[64 + 1];
  // levels[b]: whole node levels in b key bits (a table: the per-cell
  // divisions by the run-time width would cost more than the rest).
  int levels[64 + 1];
  for (int b = 0; b <= 64; ++b) levels[b] = b / bits_per_level_;
  auto new_node = [&](int depth) {
    TaggedEntry* node = nodes + node_count * fanout_;
    ++node_count;
    ++nodes_by_depth[depth];
    return node;
  };

  size_t i = 0;
  while (i < cells.size()) {
    const int f = cells[i].first.face();
    Face& face = faces_[f];
    const int prefix_bits = face.prefix_bits;
    // The previous cell of this face: path key, its length, and the depth
    // of the node holding its value slots (-1: none yet).
    uint64_t prev_key = 0;
    int prev_len = 0, prev_depth = -1;
    for (; i < cells.size() && cells[i].first.face() == f; ++i) {
      if (!fill && i > 0) {
        ACT_CHECK_MSG(cells[i - 1].first < cells[i].first,
                      "cells must be sorted and disjoint");
      }
      const TaggedEntry value = cells[i].second;
      ACT_CHECK(IsValue(value));
      int len = 0;
      const uint64_t key = cells[i].first.PathKey(&len);
      ACT_CHECK(len >= prefix_bits);

      if (len == prefix_bits) {
        // The cell's entire key is the root prefix: single-cell face (or
        // a face-level cell); the face root itself holds the value.
        ACT_CHECK_MSG(face.root == kSentinelEntry,
                      "value at root would shadow other cells");
        face.root = value;
        ++value_slots;
        continue;
      }
      ACT_CHECK_MSG(!IsValue(face.root),
                    "root value conflicts with deeper cell");

      // The node holding this cell's slots sits at `depth`; nodes
      // [0, shared] are the previous cell's, the rest are new.
      const int depth = levels[len - prefix_bits - 1];
      int shared = 0;
      if (face.root == kSentinelEntry) {
        if (fill) {
          path[0] = new_node(0);
          face.root = MakePointer(path[0]);
        } else {
          ++node_count;
          face.root = kPointerPlaceholder;
        }
      } else {
        const int common = std::min(
            {util::CommonPrefixLength(prev_key, key), prev_len, len});
        ACT_CHECK(common >= prefix_bits);
        shared = std::min({prev_depth, depth, levels[common - prefix_bits]});
      }
      prev_key = key;
      prev_len = len;
      prev_depth = depth;
      if (!fill) {
        node_count += depth - shared;
        continue;
      }

      // Only the node at `shared` can hold entries already: the ones below
      // are new, so their slots are known to be empty and are written
      // without being read first (the first touch of a fresh page is then
      // a write, which faults once instead of twice).
      for (int t = shared; t < depth; ++t) {
        TaggedEntry* child = new_node(t + 1);
        const int consumed = prefix_bits + t * bits_per_level_;
        const uint64_t chunk =
            (key >> (64 - consumed - bits_per_level_)) & slot_mask_;
        // A value here would mean an ancestor cell exists: disjointness of
        // the super covering rules that out.
        ACT_CHECK_MSG(t > shared || path[t][chunk] == kSentinelEntry,
                      "ancestor/descendant conflict in trie");
        path[t][chunk] = MakePointer(child);
        ++used_by_depth[t];
        path[t + 1] = child;
      }
      pointer_slots += depth - shared;

      // Artificial key extension (paper Sec. 3.1.2): a cell whose remaining
      // key is shorter than the node's bit window stands for all its
      // descendants at the node-aligned level; they occupy the contiguous
      // slot range [bits << (bpl - r), (bits + 1) << (bpl - r)).
      const int consumed = prefix_bits + depth * bits_per_level_;
      const int r = len - consumed;
      const uint64_t bits_r =
          (key >> (64 - consumed - r)) & ((uint64_t{1} << r) - 1);
      TaggedEntry* slots = path[depth] + (bits_r << (bits_per_level_ - r));
      const uint64_t count = uint64_t{1} << (bits_per_level_ - r);
      if (depth == shared) {
        for (uint64_t s = 0; s < count; ++s) {
          ACT_CHECK_MSG(slots[s] == kSentinelEntry,
                        "overlapping cells: super covering not disjoint");
        }
      }
      std::fill_n(slots, count, value);
      used_by_depth[depth] += count;
      value_slots += count;
      value_depth_sum += count * static_cast<uint64_t>(depth + 1);
    }
  }
  if (!fill) {
    // The counting pass leaves the faces as it found them.
    for (Face& face : faces_) face.root = kSentinelEntry;
    return node_count;
  }

  int max_depth = 0;  // depths [0, max_depth) hold nodes
  while (max_depth <= 64 && nodes_by_depth[max_depth] > 0) ++max_depth;
  stats_ = ActStats{};
  stats_.node_count = node_count;
  stats_.memory_bytes =
      node_count * static_cast<uint64_t>(fanout_) * sizeof(TaggedEntry);
  stats_.value_slots = value_slots;
  stats_.pointer_slots = pointer_slots;
  if (value_slots > 0) {
    stats_.avg_value_depth = static_cast<double>(value_depth_sum) /
                             static_cast<double>(value_slots);
  }
  stats_.max_depth = max_depth;
  stats_.occupancy_by_depth.resize(max_depth);
  for (int d = 0; d < max_depth; ++d) {
    stats_.occupancy_by_depth[d] =
        static_cast<double>(used_by_depth[d]) /
        static_cast<double>(nodes_by_depth[d] * fanout_);
  }
  return node_count;
}

void AdaptiveCellTrie::ProbeBatch(const uint64_t* leaf_cell_ids, uint64_t n,
                                  TaggedEntry* out) const {
  // Process lookups in groups; within a group all traversals advance one
  // level per round, so the (likely cache-missing) node reads of up to
  // kGroup independent probes are in flight together.
  constexpr int kGroup = 8;
  uint64_t base = 0;
  while (base < n) {
    int m = static_cast<int>(std::min<uint64_t>(kGroup, n - base));
    TaggedEntry entry[kGroup];
    uint64_t key[kGroup];
    int offset[kGroup];
    int live = 0;
    for (int k = 0; k < m; ++k) {
      uint64_t id = leaf_cell_ids[base + k];
      const Face& face = faces_[id >> CellId::kPosBits];
      key[k] = (id << CellId::kFaceBits) & ~uint64_t{15};
      offset[k] = face.prefix_bits;
      if (offset[k] > 0 && (key[k] >> (64 - offset[k])) != face.prefix) {
        entry[k] = kSentinelEntry;
      } else {
        entry[k] = face.root;
        if (entry[k] != kSentinelEntry && !IsValue(entry[k])) ++live;
      }
    }
    while (live > 0) {
      live = 0;
      for (int k = 0; k < m; ++k) {
        TaggedEntry e = entry[k];
        if (e == kSentinelEntry || IsValue(e)) continue;
        uint64_t chunk =
            (key[k] >> (64 - offset[k] - bits_per_level_)) & slot_mask_;
        e = PointerOf(e)[chunk];
        offset[k] += bits_per_level_;
        entry[k] = e;
        if (e != kSentinelEntry && !IsValue(e)) ++live;
      }
    }
    for (int k = 0; k < m; ++k) out[base + k] = entry[k];
    base += m;
  }
}

TaggedEntry AdaptiveCellTrie::ProbeCounting(uint64_t leaf_cell_id,
                                            int* depth) const {
  *depth = 0;
  const Face& face = faces_[leaf_cell_id >> CellId::kPosBits];
  uint64_t key = (leaf_cell_id << CellId::kFaceBits) & ~uint64_t{15};
  int offset = face.prefix_bits;
  if (offset > 0 && (key >> (64 - offset)) != face.prefix) {
    return kSentinelEntry;
  }
  TaggedEntry entry = face.root;
  while (entry != kSentinelEntry && !IsValue(entry)) {
    ++*depth;
    uint64_t chunk = (key >> (64 - offset - bits_per_level_)) & slot_mask_;
    entry = PointerOf(entry)[chunk];
    offset += bits_per_level_;
  }
  return entry;
}

}  // namespace actjoin::act
