// Allocation-log vocabulary for runtime capture analysis (paper
// Section 3.1.2).
//
// Every memory block allocated inside a transaction is recorded in a
// transaction-local allocation log; the read/write barriers consult the log
// to decide whether an access targets captured memory and can skip the full
// STM barrier. Three implementations are compared in the paper and provided
// here: a search tree (precise), a cache-line-sized array (bounded,
// conservative) and a hash filter (conservative, false negatives allowed).
//
// The three logs are plain concrete types sharing the duck-typed CaptureLog
// interface below — deliberately no abstract base class. The barrier fast
// paths reach membership state through the CaptureFrame
// (capture/capture_frame.hpp) and the per-transaction barrier plan
// (stm/barrier_plan.hpp), which resolve the log choice once at transaction
// begin; an indirect call per access would dominate the very check the
// paper wants to make nearly free. The `devirtualized_fast_path` ctest
// greps this directory to keep it that way.
//
// Conservativeness contract: contains() may return false for logged memory
// (missed elision) but must never return true for memory that was not logged
// by the current transaction. Our STM does in-place updates, for which the
// paper notes capture analysis may be arbitrarily imprecise yet remain safe.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>

namespace cstm {

/// The three structures the paper compares (Figure 11(b)).
enum class AllocLogKind : std::uint8_t { kTree = 0, kArray = 1, kFilter = 2 };

inline const char* to_string(AllocLogKind k) {
  switch (k) {
    case AllocLogKind::kTree: return "tree";
    case AllocLogKind::kArray: return "array";
    case AllocLogKind::kFilter: return "filter";
  }
  return "?";
}

/// The interface every allocation log models, checked statically:
///
///  * insert(addr, size)   — records a block [addr, addr+size). Blocks are
///    disjoint (they come from the allocator). May silently drop the block
///    (conservative).
///  * erase(addr, size)    — removes a block previously inserted with the
///    same base address.
///  * contains(addr, size) — true only if [addr, addr+size) lies entirely
///    inside one logged block (false negatives allowed, false positives
///    never).
///  * clear()              — empties the log (transaction end).
///  * entries()            — number of blocks currently tracked (diagnostic).
///  * name()               — short identifier for diagnostics.
template <typename L>
concept CaptureLog =
    requires(L& log, const L& clog, const void* addr, std::size_t size) {
      { log.insert(addr, size) } -> std::same_as<void>;
      { log.erase(addr, size) } -> std::same_as<void>;
      { clog.contains(addr, size) } -> std::same_as<bool>;
      { log.clear() } -> std::same_as<void>;
      { clog.entries() } -> std::same_as<std::size_t>;
      { clog.name() } -> std::convertible_to<const char*>;
    };

}  // namespace cstm
