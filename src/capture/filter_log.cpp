#include "capture/filter_log.hpp"

#include <algorithm>

namespace cstm {

FilterAllocLog::FilterAllocLog(std::size_t table_bits)
    : table_(std::size_t{1} << table_bits),
      shift_(static_cast<unsigned>(64 - table_bits)) {}

void FilterAllocLog::insert(const void* addr, std::size_t size) {
  if (size == 0) return;
  const auto begin = reinterpret_cast<std::uintptr_t>(addr);
  const std::uintptr_t first = begin & kWordMask;
  // Words beyond the first kMaxWordsPerBlock go untracked (conservative).
  const std::uintptr_t last = std::min((begin + size - 1) & kWordMask,
                                       first + (kMaxWordsPerBlock - 1) * 8);
  for (std::uintptr_t w = first; w <= last; w += 8) {
    // A slot already live this epoch is a collision overwrite (or a re-mark
    // of the same word): the old mark is evicted.
    Entry& e = table_[slot_of(w)];
    e.word = w;
    e.epoch = epoch_;
  }
  ++blocks_;
}

void FilterAllocLog::erase(const void* addr, std::size_t size) {
  if (size == 0) return;
  const auto begin = reinterpret_cast<std::uintptr_t>(addr);
  const std::uintptr_t first = begin & kWordMask;
  // insert() marked at most kMaxWordsPerBlock words; none past them to clear.
  const std::uintptr_t last = std::min((begin + size - 1) & kWordMask,
                                       first + (kMaxWordsPerBlock - 1) * 8);
  bool any_live = false;
  for (std::uintptr_t w = first; w <= last; w += 8) {
    Entry& e = table_[slot_of(w)];
    if (e.word == w && e.epoch == epoch_) {
      e.epoch = 0;
      any_live = true;
    }
  }
  // Only blocks actually live this epoch count down: erasing a block whose
  // marks predate the last clear() (or were never inserted) used to
  // decrement blocks_ anyway, so entries() under-reported until the next
  // clear.
  if (any_live && blocks_ > 0) --blocks_;
}

void FilterAllocLog::clear() {
  ++epoch_;
  blocks_ = 0;
}

}  // namespace cstm
