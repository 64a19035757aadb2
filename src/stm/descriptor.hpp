// Transaction descriptor: all per-thread transaction state, including the
// capture-analysis machinery (the packed capture frame with stack bounds and
// membership views, the lazily constructed allocation logs, and the barrier
// plan resolved from the config at transaction begin) and the backoff state
// of the one contention policy (consecutive_aborts and the backoff RNG).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "capture/capture_frame.hpp"
#include "capture/private_registry.hpp"
#include "stm/alloc_ctx.hpp"
#include "stm/barrier_plan.hpp"
#include "stm/config.hpp"
#include "stm/logs.hpp"
#include "stm/orec.hpp"
#include "stm/stats.hpp"
#include "support/backoff.hpp"
#include "support/cacheline.hpp"

namespace cstm {

/// Thrown after a conflict abort; the descriptor has already rolled back
/// fully. Caught by the retry loop in cstm::atomic().
struct TxAbortException {};

/// Thrown by cstm::abort_tx(): aborts the innermost transaction without
/// retrying (partial abort when nested, cancellation at top level).
struct TxUserAbort {};

enum class CaptureKind : std::uint8_t { kNone, kStack, kHeap };

class Tx {
 public:
  Tx();
  ~Tx();
  Tx(const Tx&) = delete;
  Tx& operator=(const Tx&) = delete;

  // -- Hot state -------------------------------------------------------------
  // What the barriers touch on every access, first and inside the leading
  // kHotBytes (pinned by the static_asserts after the class), so an edit to
  // a cold member below cannot move them.
  static constexpr std::size_t kHotBytes = 6 * kCacheLineSize;
  /// cfg compiled into specialized barrier paths at begin_top; the barriers
  /// dispatch on this, never on cfg.
  BarrierPlan plan;
  /// Packed capture state the fast paths read: stack bound, log views,
  /// inline array log (capture/capture_frame.hpp).
  CaptureFrame frame;
  std::uint64_t start_ts = 0;
  std::uintptr_t stack_low = 0;  // low bound of this thread's stack
  unsigned depth = 0;
  TxLog<ReadEntry> rs;
  TxLog<OwnedOrec> ws;
  UndoLog undo;

  // -- Cold state ------------------------------------------------------------
  TxConfig cfg;
  unsigned consecutive_aborts = 0;
  TxAllocCtx alloc;
  std::vector<std::size_t> freed_events;  // indices into alloc.allocs
  /// Durable-mode redo write log (non-captured stores with post-images
  /// captured at record time) and the blocks handed out by
  /// DurableHeap::alloc. Both empty unless plan.durable.
  TxLog<DurableWrite> dlog;
  std::vector<DurableAlloc> durable_allocs;
  TxStats stats;

  /// Snapshot timestamp while a transaction is active; kIdleEpoch when not.
  /// Published so the allocator's quarantine can wait for every transaction
  /// that might still hold a stale pointer to freed memory (zombie writers
  /// must never reach reused blocks — their bytes become allocator
  /// metadata).
  static constexpr std::uint64_t kIdleEpoch = ~std::uint64_t{0};
  std::atomic<std::uint64_t> active_since{kIdleEpoch};

  /// Blocks freed at commit, quarantined until quiescence.
  struct QuarantinedBlock {
    void* ptr;
    std::uint64_t epoch;
  };
  std::vector<QuarantinedBlock> quarantine;

  struct LevelMark {
    std::size_t rs, ws, undo, allocs, frees, freed_events, dlog, dallocs;
    const void* level_sp;
  };
  std::vector<LevelMark> levels;

  // -- Capture machinery -----------------------------------------------------
  // Only the configured log exists: tree and filter (which own heap-backed
  // tables) are constructed on first use and kept for the thread's
  // lifetime; the array log is 1.5 cache lines living inline in the frame.

  TreeAllocLog& tree_log() {
    if (!tree_log_) {
      tree_log_ = std::make_unique<TreeAllocLog>();
      frame.tree = tree_log_.get();
    }
    return *tree_log_;
  }
  FilterAllocLog& filter_log() {
    if (!filter_log_) {
      filter_log_ = std::make_unique<FilterAllocLog>();
      frame.filter_table = filter_log_->table_data();
      frame.filter_shift = filter_log_->shift();
      frame.filter_epoch = filter_log_->epoch();
    }
    return *filter_log_;
  }

  /// The one place that routes to the plan-selected log (a kNone plan
  /// maintains no log and never invokes @p fn). Mutating call sites —
  /// allocator hooks, nested-abort replay, end-of-tx reset — all go
  /// through here; the read-side membership dispatch lives in the barrier
  /// plan paths, which read the frame's cached views instead of the
  /// (lazily constructed) log objects.
  template <typename Fn>
  void with_active_log(Fn&& fn) {
    switch (plan.log) {
      case ActiveLog::kNone: break;
      case ActiveLog::kTree: fn(tree_log()); break;
      case ActiveLog::kArray: fn(frame.array); break;
      case ActiveLog::kFilter: fn(filter_log()); break;
    }
  }

  void alloc_log_insert(const void* p, std::size_t n) {
    with_active_log([&](auto& log) { log.insert(p, n); });
  }
  void alloc_log_erase(const void* p, std::size_t n) {
    with_active_log([&](auto& log) { log.erase(p, n); });
  }
  bool in_tx() const { return depth > 0; }

  /// Appends a redo entry for a non-captured store. Called only from the
  /// outlined full-write slow path, only when plan.durable — a capture hit
  /// returns before reaching it, which is exactly the flush elision. The
  /// post-image is read HERE, right after the in-place store, because the
  /// address may be a transaction-local stack slot whose frame is dead by
  /// commit time (the baseline capture-off plan logs those too).
  void durable_record(void* addr, std::uint32_t len) {
    std::uint64_t value = 0;
    std::memcpy(&value, addr, len);
    dlog.push(DurableWrite{addr, value, len});
    ++stats.durable_stores_logged;
  }

  /// Registers a DurableHeap::alloc block: tracked for wholesale commit
  /// write-back, and inserted into the plan's capture log so its stores
  /// elide barriers and redo entries alike. Not an AllocRecord — the block
  /// is not pool memory; aborts unwind the cursor (undo log) and these
  /// entries instead of deallocating.
  void durable_note_alloc(void* p, std::size_t n) {
    durable_allocs.push_back(DurableAlloc{p, n});
    alloc_log_insert(p, n);
    ++stats.durable_allocs;
  }

  // -- Lifecycle (definitions in stm.cpp) ------------------------------------
  void begin_top(const void* sp);
  void begin_nested(const void* sp);
  void commit_top();     // may abort on validation failure (throws)
  void commit_nested();
  void abort_nested();   // partial abort of the innermost level
  void cancel();         // user abort at top level: roll back, do not retry
  [[noreturn]] void abort_self();  // full rollback + throw TxAbortException

  /// Releases quarantined blocks whose freeing epoch has quiesced (no
  /// active transaction started before it). Called from begin_top;
  /// @p force flushes regardless of the batching threshold.
  void flush_quarantine(bool force);

  bool validate() const;
  bool extend();
  /// Called on a lock conflict: counts it and aborts self. The retry loop
  /// in txn.hpp then backs off (pause_backoff) before the next attempt.
  [[noreturn]] void on_conflict();
  void pause_backoff() { backoff_.pause(consecutive_aborts); }

  /// Precise classification for count mode (Fig. 8): heap first, then stack.
  CaptureKind classify(const void* addr, std::size_t n) {
    if (tree_log().contains(addr, n)) return CaptureKind::kHeap;
    if (frame.on_tx_stack(addr, n)) return CaptureKind::kStack;
    return CaptureKind::kNone;
  }

  bool owns(std::uint64_t word) const {
    return orec::is_locked(word) && orec::owner_of(word) == this;
  }

 private:
  void reset_logs();
  /// Top-level rollback shared by abort_self and cancel: undo, orec
  /// release with a fresh stamp, allocation release, then log reset.
  void rollback_top();
  std::unique_ptr<TreeAllocLog> tree_log_;
  std::unique_ptr<FilterAllocLog> filter_log_;
  ExponentialBackoff backoff_;
  /// ArrayAllocLog::dropped() high-water already folded into
  /// stats.array_overflows (the log's counter is cumulative; stats may be
  /// reset independently, so reset_logs folds deltas).
  std::uint64_t array_dropped_seen_ = 0;
};

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"  // Tx is not standard-layout
#define CSTM_TX_HOT(m)                                             \
  static_assert(offsetof(Tx, m) + sizeof(Tx::m) <= Tx::kHotBytes, \
                "Tx::" #m " left the descriptor's hot cache lines");
CSTM_TX_HOT(plan) CSTM_TX_HOT(frame) CSTM_TX_HOT(start_ts)
CSTM_TX_HOT(stack_low) CSTM_TX_HOT(depth) CSTM_TX_HOT(rs) CSTM_TX_HOT(ws)
CSTM_TX_HOT(undo)
#undef CSTM_TX_HOT
#pragma GCC diagnostic pop

/// The calling thread's descriptor (created on first use).
Tx& current_tx();

}  // namespace cstm
