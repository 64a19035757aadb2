// Runtime configuration: which capture checks run inside the barriers, which
// allocation-log data structure backs the heap check, and whether durable
// mode is on. The named presets correspond exactly to the configurations the
// paper evaluates in Figures 9-11 and Tables 1-2.
//
// The barrier fields form a small algebra with one meaning per value: a
// runtime-check config (heap_read/heap_write, optionally widened by
// stack_private), a static_elision config, or a count_mode config — at most
// one of the three. valid() states the rule; set_global_config() rejects
// anything else, so every config a transaction can see compiles to a
// specialized barrier path (stm/barrier_plan.hpp).
#pragma once

#include <cstdint>

#include "capture/alloc_log.hpp"

namespace cstm {

struct TxConfig {
  // Runtime capture checks (Section 3.1) on the tx-local heap, separately for
  // reads and writes to reproduce the paper's "write barriers only"
  // configurations.
  bool heap_read = false;
  bool heap_write = false;

  // The directions checked above also test the tx-local stack (Section
  // 3.1.1) and the annotation registry (Section 3.1.3, thread-local/read-only
  // data). Requires a heap check.
  bool stack_private = false;

  // Compiler capture analysis (Section 3.2): honor Site::verdict.
  bool static_elision = false;

  // Fig. 8 counting mode: classify every barrier with the precise tree log
  // but still execute the full barrier (measurement, not optimization).
  bool count_mode = false;

  // Durable mode (ROADMAP direction 2): non-captured stores are redo-logged
  // and commit runs the flush/fence protocol in src/durable/. Compiled into
  // BarrierPlan::durable — zero per-access branches when off, one branch in
  // the outlined full-write slow path when on. Orthogonal to the capture
  // presets.
  bool durable = false;

  AllocLogKind alloc_log = AllocLogKind::kTree;

  /// Runtime checks, static elision and counting are mutually exclusive,
  /// and stack_private only widens a heap check.
  constexpr bool valid() const {
    const bool runtime = heap_read || heap_write;
    if (stack_private && !runtime) return false;
    return int{runtime} + int{static_elision} + int{count_mode} <= 1;
  }

  /// Same barrier configuration, with durability on. The differential
  /// suite crosses it over the capture presets to check that durability
  /// never changes committed state.
  constexpr TxConfig with_durable() const {
    TxConfig c = *this;
    c.durable = true;
    return c;
  }
  // -- Presets matching the paper's measured configurations -----------------

  /// No optimization applied.
  static constexpr TxConfig baseline() { return TxConfig{}; }

  /// Runtime checks for tx-local stack and heap in read AND write barriers.
  static constexpr TxConfig runtime_rw(AllocLogKind k = AllocLogKind::kTree) {
    TxConfig c;
    c.heap_read = c.heap_write = c.stack_private = true;
    c.alloc_log = k;
    return c;
  }

  /// Runtime checks for tx-local stack and heap in write barriers only.
  static constexpr TxConfig runtime_w(AllocLogKind k = AllocLogKind::kTree) {
    TxConfig c;
    c.heap_write = c.stack_private = true;
    c.alloc_log = k;
    return c;
  }

  /// Runtime checks for tx-local heap only, write barriers only (the
  /// configuration of Figure 11(b)).
  static constexpr TxConfig runtime_heap_w(AllocLogKind k = AllocLogKind::kTree) {
    TxConfig c;
    c.heap_write = true;
    c.alloc_log = k;
    return c;
  }

  /// Compiler capture analysis: statically elided barriers, no runtime cost.
  static constexpr TxConfig compiler() {
    TxConfig c;
    c.static_elision = true;
    return c;
  }

  /// Durable mode with full runtime capture checks: the configuration
  /// where capture elides both STM barriers AND redo-log flushes (the
  /// durable quickstart preset; see docs/ARCHITECTURE.md).
  static constexpr TxConfig durable_rw(AllocLogKind k = AllocLogKind::kTree) {
    return runtime_rw(k).with_durable();
  }

  /// Durable mode with no capture checks: every instrumented store is
  /// redo-logged and flushed. The comparison baseline for
  /// flushes_elided_percent().
  static constexpr TxConfig durable_baseline() {
    return baseline().with_durable();
  }

  /// Fig. 8 barrier-breakdown measurement.
  static constexpr TxConfig counting() {
    TxConfig c;
    c.count_mode = true;
    c.alloc_log = AllocLogKind::kTree;  // precise classification
    return c;
  }
};

/// Installs the configuration picked up by transactions at begin. Threads
/// observe the change on their next top-level transaction. Throws
/// std::invalid_argument unless cfg.valid().
void set_global_config(const TxConfig& cfg);
TxConfig global_config();

}  // namespace cstm
