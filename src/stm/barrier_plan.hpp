// Barrier plans: the TxConfig compiled ONCE at transaction begin into a
// per-descriptor dispatch slot, so the barriers pay zero config branches
// and zero indirect calls per access.
//
// Before this existed, every tm_read/tm_write evaluated up to six cfg
// booleans, a switch over cfg.alloc_log, and an indirect membership call —
// per access, against a configuration that cannot change inside a
// transaction. The plan hoists all of that to begin_top: each barrier
// direction (read, write) is mapped to one of a small set of specialized
// fast paths (template instantiations in stm/barriers.hpp), and the
// allocator hooks are told which concrete log to feed. The mapping is total
// over every valid TxConfig (TxConfig::valid()):
//
//   config                        direction path              log
//   count_mode                    kCounting (both)            kTree
//   static_elision                kStatic (both)              kNone
//   heap_<dir>, stack_private     kStackHeapPriv{log}         {log}
//   heap_<dir>                    kHeap{log}                  {log}
//   no check on <dir>             kFull                       as above
//
// where {log} is alloc_log. Invalid configs are rejected by
// set_global_config and never reach compile().
#pragma once

#include <cstdint>

#include "stm/config.hpp"

namespace cstm {

/// Which membership structure the transaction's allocator hooks feed
/// (tx_malloc/tx_free insert/erase, nested-abort replay, end-of-tx reset).
/// kNone means no log is maintained at all — the satellite fix for paying
/// three log resets per transaction regardless of config.
enum class ActiveLog : std::uint8_t { kNone = 0, kTree, kArray, kFilter };

/// The specialized fast path one barrier direction dispatches to. The
/// Stack/Heap/Priv names spell out exactly which capture checks run, in
/// that order (the paper's Figure 2 ordering: cheapest first).
enum class BarrierPath : std::uint8_t {
  kFull = 0,            // no capture checks: straight to the full barrier
  kStatic,              // compiler elision only (Site::verdict)
  kStackHeapPrivTree,   // runtime_rw / runtime_w presets
  kStackHeapPrivArray,
  kStackHeapPrivFilter,
  kHeapTree,            // runtime_heap_w presets
  kHeapArray,
  kHeapFilter,
  kCounting,            // Fig. 8: classify precisely, then full barrier
};

struct BarrierPlan {
  BarrierPath read = BarrierPath::kFull;
  BarrierPath write = BarrierPath::kFull;
  ActiveLog log = ActiveLog::kNone;
  // Durable mode, resolved once at begin like everything else. Consulted
  // only inside the outlined full-write slow path (to append the redo
  // entry) and at commit_top — the inlined fast paths, including every
  // capture-elided store, never test it.
  bool durable = false;

  /// Resolves a valid TxConfig into its plan. Constexpr so config→path
  /// mappings can be checked at compile time (see tests/test_stm_basic.cpp).
  static constexpr BarrierPlan compile(const TxConfig& cfg) {
    BarrierPlan p;
    p.durable = cfg.durable;
    if (cfg.count_mode) {
      p.read = p.write = BarrierPath::kCounting;
      p.log = ActiveLog::kTree;  // precise classification
      return p;
    }
    if (cfg.static_elision) {
      p.read = p.write = BarrierPath::kStatic;
      return p;
    }
    const BarrierPath checked = with_log(
        cfg.stack_private ? BarrierPath::kStackHeapPrivTree
                          : BarrierPath::kHeapTree,
        cfg.alloc_log);
    p.read = cfg.heap_read ? checked : BarrierPath::kFull;
    p.write = cfg.heap_write ? checked : BarrierPath::kFull;
    if (cfg.heap_read || cfg.heap_write) {
      p.log = static_cast<ActiveLog>(static_cast<int>(cfg.alloc_log) + 1);
    }
    return p;
  }

 private:
  // BarrierPath lays the ×{tree,array,filter} families out contiguously in
  // AllocLogKind order (as ActiveLog does, after kNone), so selecting the
  // member is an add, not a switch.
  static constexpr BarrierPath with_log(BarrierPath tree_member,
                                        AllocLogKind k) {
    return static_cast<BarrierPath>(static_cast<int>(tree_member) +
                                    static_cast<int>(k));
  }
};

}  // namespace cstm
