// Hash-filter allocation log (paper Section 3.1.2 "Filtering"): a hash table
// in which every word of an allocated block is marked with its exact
// address. A capture check is one hash + one compare. Collisions overwrite
// older marks, producing false negatives only — never false positives — so
// the filter stays conservative. Unlike the paper's description, entries are
// epoch-stamped so that clearing the log at transaction end is O(1) instead
// of O(table size).
//
// The hot membership probe is the static contains_in(), written against a
// (table, shift, epoch) view so the barrier fast path can run it straight
// off the CaptureFrame's cached copy of those three words and inline the
// whole check. The member contains() is the same code applied to this
// object's own state.
#pragma once

#include <cstdint>
#include <vector>

#include "capture/alloc_log.hpp"

namespace cstm {

class FilterAllocLog {
 public:
  struct Entry {
    std::uintptr_t word = 0;
    std::uint64_t epoch = 0;
  };

  static constexpr std::size_t kDefaultTableBits = 12;  // 4096 entries

  /// Caps the per-block marking work; words beyond the cap go untracked
  /// (conservative). The paper notes insertion cost grows with block size —
  /// this bound keeps worst-case allocation cost predictable.
  static constexpr std::size_t kMaxWordsPerBlock = 4096;

  explicit FilterAllocLog(std::size_t table_bits = kDefaultTableBits);

  void insert(const void* addr, std::size_t size);
  void erase(const void* addr, std::size_t size);
  bool contains(const void* addr, std::size_t size) const {
    return contains_in(table_.data(), shift_, epoch_, addr, size);
  }
  void clear();
  std::size_t entries() const { return blocks_; }
  const char* name() const { return "filter"; }

  /// One probe (hash + word compare + epoch compare) per covered word,
  /// against an explicit (table, shift, epoch) view. The CaptureFrame
  /// caches that view at transaction begin and calls this directly.
  static bool contains_in(const Entry* table, unsigned shift,
                          std::uint64_t epoch, const void* addr,
                          std::size_t size) {
    if (size == 0) return false;
    const auto begin = reinterpret_cast<std::uintptr_t>(addr);
    const std::uintptr_t first = begin & kWordMask;
    const std::uintptr_t last = (begin + size - 1) & kWordMask;
    for (std::uintptr_t w = first; w <= last; w += 8) {
      const Entry& e = table[slot_in(w, shift)];
      if (e.word != w || e.epoch != epoch) return false;
    }
    return true;
  }

  // -- Hot-state view cached by the CaptureFrame ----------------------------
  // The table never reallocates after construction; only the epoch moves
  // (bumped by clear()), so the frame re-caches epoch() once per
  // transaction begin.
  const Entry* table_data() const { return table_.data(); }
  unsigned shift() const { return shift_; }
  std::uint64_t epoch() const { return epoch_; }

 private:
  static constexpr std::uintptr_t kWordMask = ~static_cast<std::uintptr_t>(7);

  static std::size_t slot_in(std::uintptr_t word, unsigned shift) {
    return static_cast<std::size_t>((word >> 3) * 0x9e3779b97f4a7c15ull >>
                                    shift);
  }
  std::size_t slot_of(std::uintptr_t word) const {
    return slot_in(word, shift_);
  }

  std::vector<Entry> table_;
  unsigned shift_;
  std::uint64_t epoch_ = 1;
  std::size_t blocks_ = 0;
};

static_assert(CaptureLog<FilterAllocLog>);

}  // namespace cstm
