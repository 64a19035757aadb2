// STM read and write barriers with runtime and compile-time capture
// analysis (paper Figure 2 and Section 3).
//
// Algorithm (in-place update, encounter-time locking, optimistic readers):
//  * read: sample orec, read value, resample; validate version against the
//    transaction timestamp, extending the timestamp on demand.
//  * write: acquire the orec by CAS, record the pre-image in the undo log,
//    store in place.
//
// Capture fast paths come first: a barrier on captured memory degenerates
// to a plain CPU access plus a counter increment. Which fast path runs is
// decided ONCE per transaction: begin_top compiles the TxConfig into a
// BarrierPlan (stm/barrier_plan.hpp), and each barrier dispatches on the
// plan's per-direction slot to a fully specialized path — zero config
// branches, zero indirect calls, membership state read straight from the
// packed CaptureFrame in the descriptor. Every valid config has such a path;
// set_global_config rejects the rest, so no per-access fallback exists.
#pragma once

#include <atomic>
#include <type_traits>

#include "stm/descriptor.hpp"
#include "stm/site.hpp"

namespace cstm {

template <typename T>
concept TmValue = std::is_trivially_copyable_v<T> && sizeof(T) <= 8;

namespace detail {

// Relaxed atomic accesses keep racy loads/stores well-defined without
// changing x86-64 codegen relative to plain moves.
template <TmValue T>
T load_relaxed(const T* p) {
  T v;
  __atomic_load(const_cast<T*>(p), &v, __ATOMIC_RELAXED);
  return v;
}

template <TmValue T>
void store_relaxed(T* p, T v) {
  __atomic_store(p, &v, __ATOMIC_RELAXED);
}

template <TmValue T>
[[gnu::noinline]] T full_tm_read(Tx& tx, const T* addr) {
  auto& rec = orec_table().slot(addr);
  for (;;) {
    const std::uint64_t v1 = rec.load(std::memory_order_acquire);
    if (orec::is_locked(v1)) {
      if (orec::owner_of(v1) == &tx) return load_relaxed(addr);  // read-own
      tx.on_conflict();
    }
    const T val = load_relaxed(addr);
    const std::uint64_t v2 = rec.load(std::memory_order_acquire);
    if (v1 != v2) continue;  // changed underneath us; retry
    if (orec::version_of(v1) > tx.start_ts) {
      if (!tx.extend()) tx.abort_self();
      continue;  // timestamp extended; revalidate this orec
    }
    tx.rs.push(ReadEntry{&rec, v1});
    return val;
  }
}

template <TmValue T>
[[gnu::noinline]] void full_tm_write(Tx& tx, T* addr, T value) {
  auto& rec = orec_table().slot(addr);
  for (;;) {
    std::uint64_t v = rec.load(std::memory_order_acquire);
    if (orec::is_locked(v)) {
      if (orec::owner_of(v) == &tx) {
        // Write-after-write fast path: lock already held.
        ++tx.stats.write_own_fast;
        tx.undo.record(addr, sizeof(T));
        store_relaxed(addr, value);
        if (tx.plan.durable) tx.durable_record(addr, sizeof(T));
        return;
      }
      tx.on_conflict();
    }
    if (orec::version_of(v) > tx.start_ts) {
      if (!tx.extend()) tx.abort_self();
      continue;
    }
    if (rec.compare_exchange_weak(v, orec::make_lock(&tx),
                                  std::memory_order_acq_rel,
                                  std::memory_order_acquire)) {
      tx.ws.push(OwnedOrec{&rec, v});
      tx.undo.record(addr, sizeof(T));
      store_relaxed(addr, value);
      if (tx.plan.durable) tx.durable_record(addr, sizeof(T));
      return;
    }
  }
}

inline void classify_access(Tx& tx, const void* addr, std::size_t n,
                            const Site& site, bool is_write) {
  const CaptureKind k = tx.classify(addr, n);
  TxStats& s = tx.stats;
  if (is_write) {
    switch (k) {
      case CaptureKind::kHeap: ++s.write_cap_heap; return;
      case CaptureKind::kStack: ++s.write_cap_stack; return;
      default: break;
    }
    if (site.manual) ++s.write_required; else ++s.write_not_required;
  } else {
    switch (k) {
      case CaptureKind::kHeap: ++s.read_cap_heap; return;
      case CaptureKind::kStack: ++s.read_cap_stack; return;
      default: break;
    }
    if (site.manual) ++s.read_required; else ++s.read_not_required;
  }
}

// ---------------------------------------------------------------------------
// Specialized plan paths
// ---------------------------------------------------------------------------
// One instantiation per runtime-check BarrierPath. The path's coordinates
// (stack+private checks or not, which log) are compile-time constants, so
// every `if constexpr` below folds away and each path compiles to exactly
// its checks, in Figure 2's cheapest-first order, with membership read
// straight off tx.frame.

template <BarrierPath B>
inline constexpr bool kChecksStackPrivate =
    B <= BarrierPath::kStackHeapPrivFilter;

// Inverse of BarrierPlan::with_log: both families are laid out in
// AllocLogKind order.
template <BarrierPath B>
inline constexpr AllocLogKind kLogOf = static_cast<AllocLogKind>(
    (static_cast<int>(B) - static_cast<int>(BarrierPath::kStackHeapPrivTree)) %
    3);

template <BarrierPath B>
[[gnu::always_inline]] inline bool heap_hit(const CaptureFrame& f,
                                            const void* addr, std::size_t n) {
  if constexpr (kLogOf<B> == AllocLogKind::kArray) {
    return f.array_contains(addr, n);
  } else if constexpr (kLogOf<B> == AllocLogKind::kFilter) {
    return f.filter_contains(addr, n);
  } else {
    return f.tree_contains(addr, n);
  }
}

/// Store to memory classified captured, statically or at runtime. Captured
/// writes in a *nested* transaction still need a pre-image so a partial
/// abort can restore memory live-in to the child (Section 2.2.1); at nesting
/// depth 1 the memory dies on abort.
template <TmValue T>
[[gnu::always_inline]] inline void captured_store(Tx& tx, T* addr, T value) {
  if (tx.depth > 1) [[unlikely]] {
    tx.undo.record(addr, sizeof(T));
  }
  store_relaxed(addr, value);
}

template <BarrierPath B, TmValue T>
[[gnu::always_inline]] inline T plan_read(Tx& tx, const T* addr) {
  if constexpr (kChecksStackPrivate<B>) {
    if (tx.frame.on_tx_stack(addr, sizeof(T))) {
      ++tx.stats.read_elided_stack;
      return *addr;
    }
  }
  if (heap_hit<B>(tx.frame, addr, sizeof(T))) {
    ++tx.stats.read_elided_heap;
    return *addr;
  }
  if constexpr (kChecksStackPrivate<B>) {
    if (tx.frame.priv_contains(addr, sizeof(T))) {
      ++tx.stats.read_elided_private;
      return *addr;
    }
  }
  return full_tm_read(tx, addr);
}

template <BarrierPath B, TmValue T>
[[gnu::always_inline]] inline void plan_write(Tx& tx, T* addr, T value) {
  if constexpr (kChecksStackPrivate<B>) {
    if (tx.frame.on_tx_stack(addr, sizeof(T))) {
      ++tx.stats.write_elided_stack;
      captured_store(tx, addr, value);
      return;
    }
  }
  if (heap_hit<B>(tx.frame, addr, sizeof(T))) {
    ++tx.stats.write_elided_heap;
    captured_store(tx, addr, value);
    return;
  }
  if constexpr (kChecksStackPrivate<B>) {
    if (tx.frame.priv_contains(addr, sizeof(T))) {
      ++tx.stats.write_elided_private;
      captured_store(tx, addr, value);
      return;
    }
  }
  full_tm_write(tx, addr, value);
}

}  // namespace detail

/// Transactional read of *addr. Outside a transaction this is a plain load,
/// which lets the same code run for sequential setup and verification.
///
/// Force-inlined: with the full barrier outlined, what remains is the plan
/// dispatch plus the capture checks — exactly the code that must sit in the
/// caller's loop for an elided access to cost a couple of instructions (the
/// seed inlined its smaller, branchier equivalent; without the attribute GCC
/// balks at the switch's size).
template <TmValue T>
[[gnu::always_inline]] inline T tm_read(Tx& tx, const T* addr,
                                        const Site& site = kSharedSite) {
  if (!tx.in_tx()) return *addr;
  ++tx.stats.reads;
  using enum BarrierPath;
  switch (tx.plan.read) {
    case kFull:
      break;
    case kStatic:
      if (site.read_elidable()) {
        ++tx.stats.read_elided_static;
        return *addr;
      }
      break;
    case kStackHeapPrivTree:
      return detail::plan_read<kStackHeapPrivTree>(tx, addr);
    case kStackHeapPrivArray:
      return detail::plan_read<kStackHeapPrivArray>(tx, addr);
    case kStackHeapPrivFilter:
      return detail::plan_read<kStackHeapPrivFilter>(tx, addr);
    case kHeapTree:
      return detail::plan_read<kHeapTree>(tx, addr);
    case kHeapArray:
      return detail::plan_read<kHeapArray>(tx, addr);
    case kHeapFilter:
      return detail::plan_read<kHeapFilter>(tx, addr);
    case kCounting:
      detail::classify_access(tx, addr, sizeof(T), site, /*is_write=*/false);
      break;
  }
  return detail::full_tm_read(tx, addr);
}

/// Transactional write of @p value to *addr. Outside a transaction this is a
/// plain store. Force-inlined for the same reason as tm_read.
template <TmValue T>
[[gnu::always_inline]] inline void tm_write(Tx& tx, T* addr, T value,
                                            const Site& site = kSharedSite) {
  if (!tx.in_tx()) {
    *addr = value;
    return;
  }
  ++tx.stats.writes;
  using enum BarrierPath;
  switch (tx.plan.write) {
    case kFull:
      break;
    case kStatic:
      if (site.write_elidable()) {
        ++tx.stats.write_elided_static;
        return detail::captured_store(tx, addr, value);
      }
      break;
    case kStackHeapPrivTree:
      return detail::plan_write<kStackHeapPrivTree>(tx, addr, value);
    case kStackHeapPrivArray:
      return detail::plan_write<kStackHeapPrivArray>(tx, addr, value);
    case kStackHeapPrivFilter:
      return detail::plan_write<kStackHeapPrivFilter>(tx, addr, value);
    case kHeapTree:
      return detail::plan_write<kHeapTree>(tx, addr, value);
    case kHeapArray:
      return detail::plan_write<kHeapArray>(tx, addr, value);
    case kHeapFilter:
      return detail::plan_write<kHeapFilter>(tx, addr, value);
    case kCounting:
      detail::classify_access(tx, addr, sizeof(T), site, /*is_write=*/true);
      break;
  }
  detail::full_tm_write(tx, addr, value);
}

/// Transactional fetch-add used by counters: reads and writes *addr through
/// the SAME Site on one explicit path, so the two legs of the
/// read-modify-write can never disagree on capture classification. Returns
/// the previous value. Outside a transaction this is a plain load + store,
/// mirroring tm_read/tm_write.
template <TmValue T>
T tm_add(Tx& tx, T* addr, T delta, const Site& site = kSharedSite) {
  if (!tx.in_tx()) {
    const T old = *addr;
    *addr = static_cast<T>(old + delta);
    return old;
  }
  const T old = tm_read(tx, addr, site);
  tm_write(tx, addr, static_cast<T>(old + delta), site);
  return old;
}

}  // namespace cstm
