#include "act/lookup_table.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/check.h"

namespace actjoin::act {

namespace {

uint64_t HashEncoding(std::span<const uint32_t> enc) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint32_t v : enc) {
    h ^= v;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Home slot of `hash` in a table of `size` (a power of two) slots. FNV-1a
// mixes every input bit into the high bits only, so those pick the slot.
size_t HomeSlot(uint64_t hash, size_t size) {
  return static_cast<size_t>(hash >> (64 - std::countr_zero(size)));
}

}  // namespace

uint32_t LookupTableBuilder::AddList(std::span<const PolygonRef> refs) {
  // Encode into the scratch buffer: n_true, true hits, n_cand, candidates,
  // each section sorted.
  const uint32_t n = static_cast<uint32_t>(refs.size());
  uint32_t n_true = 0;
  for (const PolygonRef& r : refs) n_true += r.interior ? 1 : 0;
  scratch_.resize(size_t{n} + 2);
  scratch_[0] = n_true;
  scratch_[n_true + 1] = n - n_true;
  size_t next_true = 1, next_cand = n_true + 2;
  for (const PolygonRef& r : refs) {
    scratch_[r.interior ? next_true++ : next_cand++] = r.polygon_id;
  }
  std::sort(scratch_.begin() + 1, scratch_.begin() + 1 + n_true);
  std::sort(scratch_.begin() + 2 + n_true, scratch_.end());

  if (2 * (used_ + 1) > slots_.size()) Grow();
  const uint64_t h = HashEncoding(scratch_);
  std::vector<uint32_t>& data = table_.data_;
  const size_t mask = slots_.size() - 1;
  for (size_t i = HomeSlot(h, slots_.size());; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.offset_plus1 == 0) {
      ACT_CHECK_MSG(data.size() + scratch_.size() <
                        std::numeric_limits<uint32_t>::max(),
                    "lookup table exceeds 32-bit offsets");
      const uint32_t offset = static_cast<uint32_t>(data.size());
      data.insert(data.end(), scratch_.begin(), scratch_.end());
      slot = {h, offset + 1};
      ++used_;
      return offset;
    }
    if (slot.hash != h) continue;
    // A hash hit must still match content: different lists can collide on
    // the 64-bit hash, and then probing simply continues. The stored
    // entry's length follows from its two counts.
    const uint32_t offset = slot.offset_plus1 - 1;
    const uint32_t stored_true = data[offset];
    if (stored_true == n_true && data[offset + 1 + n_true] == n - n_true &&
        std::equal(scratch_.begin(), scratch_.end(), data.begin() + offset)) {
      return offset;
    }
  }
}

void LookupTableBuilder::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 64 : old.size() * 2, Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.offset_plus1 == 0) continue;
    size_t i = HomeSlot(s.hash, slots_.size());
    while (slots_[i].offset_plus1 != 0) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

LookupTable LookupTableBuilder::Build() && {
  slots_ = {};
  scratch_ = {};
  used_ = 0;
  return std::move(table_);
}

}  // namespace actjoin::act
