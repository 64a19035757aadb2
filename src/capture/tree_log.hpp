// Search-tree allocation log (paper Section 3.1.2, Figure 5): precise
// membership over disjoint allocated ranges.
//
// The paper describes an envelope tree (internal nodes hold min/max of their
// children). Because allocator blocks are pairwise disjoint, an AVL tree
// keyed by block base with a floor search is equivalent and precise: the
// candidate block containing an address is exactly the one with the greatest
// base <= address. Misses terminate after O(log n) comparisons, satisfying
// the paper's "optimize the miss path" design principle.
//
// Span check: the log also keeps a conservative span [lo, hi) that covers
// every live block. insert() grows it, erase() never shrinks it, clear()
// empties it (lo > hi). An access outside the span cannot lie inside any
// block, so contains() answers those misses inline in two compares; only
// an access inside the span pays the out-of-line floor search, which stays
// the exact answer. The span never decides a hit, so the log stays precise.
#pragma once

#include <cstdint>
#include <vector>

#include "capture/alloc_log.hpp"

namespace cstm {

class TreeAllocLog {
 public:
  TreeAllocLog();

  void insert(const void* addr, std::size_t size);
  void erase(const void* addr, std::size_t size);
  [[gnu::always_inline]] bool contains(const void* addr,
                                       std::size_t size) const {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    if (a < lo_ || a + size > hi_) return false;
    return floor_contains(a, size);
  }
  void clear();
  std::size_t entries() const { return count_; }
  const char* name() const { return "tree"; }

  /// Height of the AVL tree (diagnostic, exercised by tests).
  int height() const;

 private:
  static constexpr std::int32_t kNil = -1;

  struct Node {
    std::uintptr_t begin = 0;
    std::uintptr_t end = 0;
    std::int32_t left = kNil;
    std::int32_t right = kNil;
    std::int32_t height = 1;
  };

  /// The exact membership test: floor search for the block with the
  /// greatest base <= a.
  bool floor_contains(std::uintptr_t a, std::size_t size) const;

  std::int32_t node_height(std::int32_t n) const {
    return n == kNil ? 0 : nodes_[static_cast<std::size_t>(n)].height;
  }
  void update(std::int32_t n);
  std::int32_t rotate_left(std::int32_t n);
  std::int32_t rotate_right(std::int32_t n);
  std::int32_t rebalance(std::int32_t n);
  std::int32_t insert_rec(std::int32_t n, std::uintptr_t begin, std::uintptr_t end);
  std::int32_t erase_rec(std::int32_t n, std::uintptr_t begin, bool& erased);
  std::int32_t detach_min(std::int32_t n, std::int32_t& min_out);
  std::int32_t alloc_node(std::uintptr_t begin, std::uintptr_t end);
  void free_node(std::int32_t n);

  std::vector<Node> nodes_;
  std::vector<std::int32_t> free_list_;
  std::int32_t root_ = kNil;
  std::size_t count_ = 0;
  // The span; empty (lo_ > hi_) after construction and clear().
  std::uintptr_t lo_ = ~std::uintptr_t{0};
  std::uintptr_t hi_ = 0;
};

static_assert(CaptureLog<TreeAllocLog>);

}  // namespace cstm
