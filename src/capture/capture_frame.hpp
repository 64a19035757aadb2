// The capture frame: every piece of state the barrier fast paths touch to
// classify an access as captured, packed into one contiguous block of the
// transaction descriptor.
//
// The paper's argument (Section 3.1) is that the runtime capture check must
// be cheap enough to pay for itself on every access. Scattering the check's
// inputs — stack bounds here, an allocation log behind a pointer there, a
// registry somewhere else — costs cache lines and indirections before the
// first compare runs. The frame fixes the layout instead:
//
//   line 0: tx stack bound, the filter log's (table, shift, epoch) view,
//           the tree-log and private-registry pointers — everything a hit
//           or miss decision reads first.
//   line 1+: the cache-line array log, inline (Figure 6's whole point is
//           that a membership scan touches a single line).
//
// Which of these fields matter for a given transaction is decided once at
// begin_top by the barrier plan (stm/barrier_plan.hpp); the specialized
// fast paths then read the frame with zero indirect calls. Array and filter
// membership inline completely. The tree log and the private registry
// inline their span check (capture/tree_log.hpp): an access outside the
// span misses in two compares, and only an access inside it calls the
// out-of-line AVL floor search. So a shared read outside every logged and
// annotated block reaches the full barrier with no other call.
#pragma once

#include <cstddef>
#include <cstdint>

#include "capture/array_log.hpp"
#include "capture/filter_log.hpp"
#include "capture/private_registry.hpp"
#include "capture/tree_log.hpp"
#include "support/cacheline.hpp"

namespace cstm {

struct alignas(kCacheLineSize) CaptureFrame {
  // -- Line 0: bounds + resolved membership views ---------------------------
  /// Stack pointer at outermost begin (Fig. 3); the transaction-local stack
  /// is everything below it.
  std::uintptr_t stack_begin = 0;

  /// Filter-log view, cached at transaction begin (the table never moves;
  /// the epoch changes only at clear, i.e. between transactions).
  const FilterAllocLog::Entry* filter_table = nullptr;
  std::uint64_t filter_epoch = 0;
  std::uint32_t filter_shift = 0;

  /// Precise log for the tree-backed plans and count-mode classification.
  const TreeAllocLog* tree = nullptr;

  /// The thread's annotation registry (Section 3.1.3); set at every
  /// begin_top, so non-null whenever a transaction is active.
  const PrivateRegistry* priv = nullptr;

  // -- Line 1+: the array log lives inline ----------------------------------
  ArrayAllocLog array;

  // -- Membership checks (the barrier fast paths call these) ----------------

  /// The single range check of Figure 4: the transaction-local stack is the
  /// region between the current stack pointer and the stack pointer at
  /// transaction begin (stack grows downwards on x86-64).
  bool on_tx_stack(const void* addr, std::size_t n) const {
    char probe;  // approximates the current stack pointer
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    return a >= reinterpret_cast<std::uintptr_t>(&probe) &&
           a + n <= stack_begin;
  }

  [[gnu::always_inline]] bool tree_contains(const void* addr,
                                            std::size_t n) const {
    return tree->contains(addr, n);  // inline span check, then the AVL walk
  }
  bool array_contains(const void* addr, std::size_t n) const {
    return array.contains(addr, n);  // one-line scan, fully inlined
  }
  bool filter_contains(const void* addr, std::size_t n) const {
    return FilterAllocLog::contains_in(filter_table, filter_shift,
                                       filter_epoch, addr, n);
  }
  [[gnu::always_inline]] bool priv_contains(const void* addr,
                                            std::size_t n) const {
    return priv->contains(addr, n);
  }
};

}  // namespace cstm
