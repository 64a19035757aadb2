#include "capture/filter_log.hpp"

namespace cstm {

FilterAllocLog::FilterAllocLog(std::size_t table_bits)
    : table_(std::size_t{1} << table_bits),
      shift_(static_cast<unsigned>(64 - table_bits)) {}

void FilterAllocLog::insert(const void* addr, std::size_t size) {
  if (size == 0) return;
  const auto begin = reinterpret_cast<std::uintptr_t>(addr);
  const std::uintptr_t first = begin & kWordMask;
  const std::uintptr_t last = (begin + size - 1) & kWordMask;
  std::size_t marked = 0;
  for (std::uintptr_t w = first; w <= last; w += 8) {
    if (marked++ >= kMaxWordsPerBlock) {
      ++words_skipped_;
      continue;
    }
    Entry& e = table_[slot_of(w)];
    // A slot already live this epoch is a collision overwrite (or a re-mark
    // of the same word): occupancy does not grow, the old mark is evicted.
    if (e.epoch != epoch_) ++words_live_;
    e.word = w;
    e.epoch = epoch_;
  }
  ++blocks_;
}

void FilterAllocLog::erase(const void* addr, std::size_t size) {
  const auto begin = reinterpret_cast<std::uintptr_t>(addr);
  const std::uintptr_t first = begin & kWordMask;
  const std::uintptr_t last = (begin + size - 1) & kWordMask;
  bool any_live = false;
  for (std::uintptr_t w = first; w <= last; w += 8) {
    Entry& e = table_[slot_of(w)];
    if (e.word == w && e.epoch == epoch_) {
      e.epoch = 0;
      any_live = true;
      if (words_live_ > 0) --words_live_;
    }
  }
  // Only blocks actually live this epoch count down: erasing a block whose
  // marks predate the last clear() (or were never inserted) used to
  // decrement blocks_ anyway, so entries() under-reported until the next
  // clear and the occupancy signal was garbage.
  if (any_live && blocks_ > 0) --blocks_;
}

void FilterAllocLog::clear() {
  ++epoch_;
  blocks_ = 0;
  words_live_ = 0;
}

}  // namespace cstm
