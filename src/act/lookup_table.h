// Lookup table for cells with three or more polygon references.
//
// Paper Sec. 3.1.2: "The lookup table is encoded as a single 32 bit unsigned
// integer array. ... Each encoded entry contains the number of true hits
// followed by the true hits, the number of candidate hits, and the candidate
// hits." Identical reference lists are stored once ("we only store unique
// polygon reference lists"). The builder dedups without allocating per
// list: each list is encoded into a reused scratch buffer, and an
// open-addressing index of (hash, offset) pairs is checked against the
// table's own words, so a stored list is never kept twice in any form.

#ifndef ACTJOIN_ACT_LOOKUP_TABLE_H_
#define ACTJOIN_ACT_LOOKUP_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "act/polygon_ref.h"

namespace actjoin::act {

class LookupTable {
 public:
  /// Visits every reference of the entry at `offset` as (polygon_id,
  /// is_true_hit) pairs: true hits first, then candidates.
  template <typename Fn>
  void VisitEntry(uint32_t offset, Fn&& fn) const {
    const uint32_t* p = data_.data() + offset;
    uint32_t n_true = *p++;
    for (uint32_t k = 0; k < n_true; ++k) fn(*p++, true);
    uint32_t n_cand = *p++;
    for (uint32_t k = 0; k < n_cand; ++k) fn(*p++, false);
  }

  uint32_t NumTrueHits(uint32_t offset) const { return data_[offset]; }
  uint32_t NumCandidates(uint32_t offset) const {
    return data_[offset + 1 + data_[offset]];
  }

  size_t SizeBytes() const { return data_.size() * sizeof(uint32_t); }
  size_t size() const { return data_.size(); }
  /// The raw encoded array (all entries back to back).
  std::span<const uint32_t> words() const { return data_; }
  bool empty() const { return data_.empty(); }

 private:
  friend class LookupTableBuilder;
  std::vector<uint32_t> data_;
};

class LookupTableBuilder {
 public:
  /// Adds a reference list (or returns the offset of an identical existing
  /// one). The list may be in any order; storage is true hits first.
  uint32_t AddList(std::span<const PolygonRef> refs);

  LookupTable Build() &&;

 private:
  /// One dedup slot: FNV-1a hash of a stored entry and its offset + 1
  /// (0 marks an empty slot).
  struct Slot {
    uint64_t hash = 0;
    uint32_t offset_plus1 = 0;
  };

  /// Doubles the slot array and re-inserts every stored entry.
  void Grow();

  LookupTable table_;
  std::vector<uint32_t> scratch_;  // encoding of the list being added
  std::vector<Slot> slots_;        // power-of-two size, at most half full
  size_t used_ = 0;
};

}  // namespace actjoin::act

#endif  // ACTJOIN_ACT_LOOKUP_TABLE_H_
