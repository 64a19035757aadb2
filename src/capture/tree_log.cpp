#include "capture/tree_log.hpp"

#include <algorithm>

namespace cstm {

TreeAllocLog::TreeAllocLog() { nodes_.reserve(64); }

std::int32_t TreeAllocLog::alloc_node(std::uintptr_t begin, std::uintptr_t end) {
  std::int32_t idx;
  if (!free_list_.empty()) {
    idx = free_list_.back();
    free_list_.pop_back();
    nodes_[static_cast<std::size_t>(idx)] = Node{begin, end, kNil, kNil, 1};
  } else {
    idx = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(Node{begin, end, kNil, kNil, 1});
  }
  return idx;
}

void TreeAllocLog::free_node(std::int32_t n) { free_list_.push_back(n); }

void TreeAllocLog::update(std::int32_t n) {
  Node& node = nodes_[static_cast<std::size_t>(n)];
  node.height = 1 + std::max(node_height(node.left), node_height(node.right));
}

std::int32_t TreeAllocLog::rotate_left(std::int32_t n) {
  Node& x = nodes_[static_cast<std::size_t>(n)];
  const std::int32_t r = x.right;
  Node& y = nodes_[static_cast<std::size_t>(r)];
  x.right = y.left;
  y.left = n;
  update(n);
  update(r);
  return r;
}

std::int32_t TreeAllocLog::rotate_right(std::int32_t n) {
  Node& x = nodes_[static_cast<std::size_t>(n)];
  const std::int32_t l = x.left;
  Node& y = nodes_[static_cast<std::size_t>(l)];
  x.left = y.right;
  y.right = n;
  update(n);
  update(l);
  return l;
}

std::int32_t TreeAllocLog::rebalance(std::int32_t n) {
  update(n);
  Node& node = nodes_[static_cast<std::size_t>(n)];
  const std::int32_t balance = node_height(node.left) - node_height(node.right);
  if (balance > 1) {
    Node& l = nodes_[static_cast<std::size_t>(node.left)];
    if (node_height(l.left) < node_height(l.right)) {
      node.left = rotate_left(node.left);
    }
    return rotate_right(n);
  }
  if (balance < -1) {
    Node& r = nodes_[static_cast<std::size_t>(node.right)];
    if (node_height(r.right) < node_height(r.left)) {
      node.right = rotate_right(node.right);
    }
    return rotate_left(n);
  }
  return n;
}

std::int32_t TreeAllocLog::insert_rec(std::int32_t n, std::uintptr_t begin,
                                      std::uintptr_t end) {
  if (n == kNil) return alloc_node(begin, end);
  Node& node = nodes_[static_cast<std::size_t>(n)];
  if (begin < node.begin) {
    const std::int32_t child = insert_rec(node.left, begin, end);
    nodes_[static_cast<std::size_t>(n)].left = child;
  } else if (begin > node.begin) {
    const std::int32_t child = insert_rec(node.right, begin, end);
    nodes_[static_cast<std::size_t>(n)].right = child;
  } else {
    // Same base re-inserted (allocator reuse after an erase the caller
    // skipped): keep the wider extent, stay conservative about count.
    node.end = std::max(node.end, end);
    return n;
  }
  return rebalance(n);
}

std::int32_t TreeAllocLog::detach_min(std::int32_t n, std::int32_t& min_out) {
  Node& node = nodes_[static_cast<std::size_t>(n)];
  if (node.left == kNil) {
    min_out = n;
    return node.right;
  }
  const std::int32_t child = detach_min(node.left, min_out);
  nodes_[static_cast<std::size_t>(n)].left = child;
  return rebalance(n);
}

std::int32_t TreeAllocLog::erase_rec(std::int32_t n, std::uintptr_t begin,
                                     bool& erased) {
  if (n == kNil) return kNil;
  Node& node = nodes_[static_cast<std::size_t>(n)];
  if (begin < node.begin) {
    const std::int32_t child = erase_rec(node.left, begin, erased);
    nodes_[static_cast<std::size_t>(n)].left = child;
  } else if (begin > node.begin) {
    const std::int32_t child = erase_rec(node.right, begin, erased);
    nodes_[static_cast<std::size_t>(n)].right = child;
  } else {
    erased = true;
    const std::int32_t left = node.left;
    const std::int32_t right = node.right;
    if (left == kNil || right == kNil) {
      free_node(n);
      return left == kNil ? right : left;
    }
    std::int32_t successor;
    const std::int32_t new_right = detach_min(right, successor);
    Node& succ = nodes_[static_cast<std::size_t>(successor)];
    succ.left = left;
    succ.right = new_right;
    free_node(n);
    return rebalance(successor);
  }
  return rebalance(n);
}

void TreeAllocLog::insert(const void* addr, std::size_t size) {
  if (size == 0) return;
  const auto begin = reinterpret_cast<std::uintptr_t>(addr);
  root_ = insert_rec(root_, begin, begin + size);
  ++count_;
  lo_ = std::min(lo_, begin);
  hi_ = std::max(hi_, begin + size);
}

void TreeAllocLog::erase(const void* addr, std::size_t /*size*/) {
  bool erased = false;
  root_ = erase_rec(root_, reinterpret_cast<std::uintptr_t>(addr), erased);
  if (erased && count_ > 0) --count_;
}

bool TreeAllocLog::floor_contains(std::uintptr_t a, std::size_t size) const {
  std::int32_t cur = root_;
  std::int32_t best = kNil;
  while (cur != kNil) {
    const Node& node = nodes_[static_cast<std::size_t>(cur)];
    if (node.begin <= a) {
      best = cur;
      cur = node.right;
    } else {
      cur = node.left;
    }
  }
  if (best == kNil) return false;
  const Node& node = nodes_[static_cast<std::size_t>(best)];
  return a + size <= node.end;
}

void TreeAllocLog::clear() {
  nodes_.clear();
  free_list_.clear();
  root_ = kNil;
  count_ = 0;
  lo_ = ~std::uintptr_t{0};
  hi_ = 0;
}

int TreeAllocLog::height() const { return node_height(root_); }

}  // namespace cstm
