// Array allocation log (paper Section 3.1.2, Figure 6): an unsorted array of
// (begin, end) ranges sized to exactly one cache line, so a capture check
// touches a single line. When the array is full further allocations are
// simply not tracked — a conservative approximation the paper justifies by
// observing that most transactions perform few allocations.
//
// The whole structure is a flat, trivially-embeddable value: it lives inline
// inside the CaptureFrame of every transaction descriptor, so the hot
// membership scan and the stack-bounds check share adjacent cache lines.
#pragma once

#include <cstdint>

#include "capture/alloc_log.hpp"
#include "support/cacheline.hpp"

namespace cstm {

class ArrayAllocLog {
 public:
  /// (begin, end) pairs of std::uintptr_t; one 64-byte line holds 4 on LP64.
  static constexpr std::size_t kCapacity =
      kCacheLineSize / (2 * sizeof(std::uintptr_t));

  void insert(const void* addr, std::size_t size) {
    if (size == 0) return;
    const auto begin = reinterpret_cast<std::uintptr_t>(addr);
    for (auto& r : ranges_) {
      if (r.begin == 0 && r.end == 0) {
        r.begin = begin;
        r.end = begin + size;
        ++count_;
        return;
      }
    }
    ++dropped_;  // full: block goes untracked (conservative miss)
  }

  void erase(const void* addr, std::size_t /*size*/) {
    const auto begin = reinterpret_cast<std::uintptr_t>(addr);
    for (auto& r : ranges_) {
      if (r.begin == begin && r.end != 0) {
        r.begin = r.end = 0;
        --count_;
        return;
      }
    }
  }

  bool contains(const void* addr, std::size_t size) const {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    for (const auto& r : ranges_) {
      if (a >= r.begin && a + size <= r.end) return true;
    }
    return false;
  }

  void clear() {
    for (auto& r : ranges_) r.begin = r.end = 0;
    count_ = 0;
  }

  std::size_t entries() const { return count_; }
  const char* name() const { return "array"; }

  /// Cumulative number of allocations that did not fit (diagnostic; clear()
  /// does NOT reset it, so TxStats::array_overflows reads per-transaction
  /// overflows as deltas of this counter).
  std::uint64_t dropped() const { return dropped_; }

 private:
  struct Range {
    std::uintptr_t begin = 0;
    std::uintptr_t end = 0;
  };

  alignas(kCacheLineSize) Range ranges_[kCapacity] = {};
  std::size_t count_ = 0;
  std::uint64_t dropped_ = 0;
};

static_assert(CaptureLog<ArrayAllocLog>);
static_assert(sizeof(std::uintptr_t) == 8, "capstm assumes LP64");

}  // namespace cstm
