// Per-thread transaction statistics, aggregated by the harness.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cstm {

// Every counter, in declaration order: the one list that generates
// TxStats's fields, add() and kCounters. A counter added anywhere else
// fails the sizeof check below instead of being silently dropped by add().
#define CSTM_TX_COUNTERS(X)                                                   \
  /* Outcomes. */                                                             \
  X(commits) X(aborts)                                                        \
  /* Barrier invocations (every instrumented access). */                      \
  X(reads) X(writes)                                                          \
  /* Elisions by mechanism. */                                                \
  X(read_elided_stack) X(read_elided_heap) X(read_elided_private)             \
  X(read_elided_static)                                                       \
  X(write_elided_stack) X(write_elided_heap) X(write_elided_private)          \
  X(write_elided_static)                                                      \
  /* Fast path: write to an ownership record already held by this           \
     transaction (the cheap write-after-write check the paper credits for    \
     yada's baseline). */                                                     \
  X(write_own_fast)                                                           \
  /* Fig. 8 classification (count_mode only). Categories are mutually       \
     exclusive and checked in the paper's order: tx-local heap, tx-local     \
     stack, otherwise manual => required, else not-required-other. */         \
  X(read_cap_heap) X(read_cap_stack) X(read_not_required) X(read_required)    \
  X(write_cap_heap) X(write_cap_stack) X(write_not_required)                  \
  X(write_required)                                                           \
  /* Transactional allocator traffic. */                                      \
  X(tx_allocs) X(tx_frees)                                                    \
  /* Allocations the inline array log could not track (ArrayAllocLog's      \
     dropped counter, sampled per transaction at reset). Each one is a       \
     conservative miss: the block's accesses pay full barriers. */            \
  X(array_overflows)                                                          \
  /* Global clock traffic (gclock.hpp): draws from the shared counter      \
     (one per writing commit and per rollback that held orecs), and lazy     \
     read-set revalidations (Tx::extend) against the clock. */                \
  X(clock_reservations) X(lazy_revalidations)                                 \
  /* Self-aborts on a lock conflict (Tx::on_conflict), under the one      \
     contention policy, exponential backoff. Validation and extend failures  \
     and user aborts are not counted. */                                      \
  X(cm_aborts_backoff)                                                        \
  /* Nested partial aborts (Tx::abort_nested): closed-nested levels rolled  \
     back individually, whatever triggered them (user abort_tx, txbatch      \
     sub-op compensation). */                                                 \
  X(nested_partial_aborts)                                                    \
  /* txbatch merge layer (src/txbatch/batcher.hpp): outer merged            \
     transactions committed, sub-ops executed inside them, and sub-ops       \
     rolled back by the per-op compensation path (requeued or failed         \
     without touching their siblings). */                                     \
  X(batch_flushes) X(batch_ops) X(batch_op_compensations)                     \
  /* Durable mode (src/durable/). Logged stores are the non-captured writes \
     that earned a redo entry; pwbs/pfences count the commit protocol's      \
     persistence traffic (simulated or real, same call sites); captured      \
     writebacks are blocks from DurableHeap::alloc persisted wholesale       \
     instead of entry-by-entry. */                                            \
  X(durable_commits) X(durable_stores_logged) X(durable_pwbs)                 \
  X(durable_pfences) X(durable_log_bytes) X(durable_captured_writebacks)      \
  X(durable_allocs)

struct TxStats {
#define CSTM_STATS_FIELD(name) std::uint64_t name = 0;
  CSTM_TX_COUNTERS(CSTM_STATS_FIELD)
#undef CSTM_STATS_FIELD

#define CSTM_STATS_ONE(name) +1
  static constexpr std::size_t kCounters = 0 CSTM_TX_COUNTERS(CSTM_STATS_ONE);
#undef CSTM_STATS_ONE

#define CSTM_STATS_NAME(name) #name,
  /// Every counter's name, in CSTM_TX_COUNTERS order.
  static constexpr const char* kCounterNames[] = {
      CSTM_TX_COUNTERS(CSTM_STATS_NAME)};
#undef CSTM_STATS_NAME

  /// Calls f(name, value) for every counter, in kCounterNames order.
  template <class F>
  void for_each_counter(F&& f) const {
#define CSTM_STATS_VISIT(name) f(#name, name);
    CSTM_TX_COUNTERS(CSTM_STATS_VISIT)
#undef CSTM_STATS_VISIT
  }

  std::uint64_t read_elided() const {
    return read_elided_stack + read_elided_heap + read_elided_private +
           read_elided_static;
  }
  std::uint64_t write_elided() const {
    return write_elided_stack + write_elided_heap + write_elided_private +
           write_elided_static;
  }

  double abort_to_commit_ratio() const {
    return commits == 0 ? 0.0
                        : static_cast<double>(aborts) /
                              static_cast<double>(commits);
  }

  // -- Per-run report ratios (harness stats block / BENCH_*.json) ------------

  /// Percentage of instrumented accesses that hit CAPTURED memory (the
  /// paper's tx-local stack + tx-local heap classes) and skipped their
  /// barrier. This is the counter batching moves: merged transactions
  /// allocate more, so more of their footprint is captured.
  double capture_hit_percent() const {
    const std::uint64_t accesses = reads + writes;
    const std::uint64_t hits = read_elided_stack + read_elided_heap +
                               write_elided_stack + write_elided_heap;
    return accesses == 0 ? 0.0
                         : 100.0 * static_cast<double>(hits) /
                               static_cast<double>(accesses);
  }

  /// Percentage of in-transaction allocations the inline array log dropped
  /// on overflow. Non-zero means the array is undersized for this workload,
  /// so the tree or the filter would elide more of it.
  double capture_overflow_percent() const {
    return tx_allocs == 0 ? 0.0
                          : 100.0 * static_cast<double>(array_overflows) /
                                static_cast<double>(tx_allocs);
  }

  /// Of the stores a durable plan would have to make persistent, the
  /// percentage that skipped redo logging and flushing because capture
  /// classified them transaction-local. The denominator is elided stores
  /// plus redo-logged stores — i.e. every instrumented store that reached
  /// its barrier's decision point under a durable plan. 100% means a fully
  /// captured workload paid zero per-store flush traffic.
  double flushes_elided_percent() const {
    const std::uint64_t denom = write_elided() + durable_stores_logged;
    return denom == 0 ? 0.0
                      : 100.0 * static_cast<double>(write_elided()) /
                            static_cast<double>(denom);
  }

  /// Percentage of instrumented accesses elided by ANY mechanism (capture,
  /// private-region annotations, static verdicts).
  double elided_percent() const {
    const std::uint64_t accesses = reads + writes;
    return accesses == 0 ? 0.0
                         : 100.0 *
                               static_cast<double>(read_elided() + write_elided()) /
                               static_cast<double>(accesses);
  }

  void add(const TxStats& o) {
#define CSTM_STATS_ADD(name) name += o.name;
    CSTM_TX_COUNTERS(CSTM_STATS_ADD)
#undef CSTM_STATS_ADD
  }

  void reset() { *this = TxStats{}; }
};

static_assert(sizeof(TxStats) == TxStats::kCounters * sizeof(std::uint64_t),
              "every TxStats counter must come from CSTM_TX_COUNTERS");

/// Sum of the statistics of all live descriptors plus all retired
/// (destroyed) descriptors since the last reset.
TxStats stats_snapshot();

/// Zeroes all live descriptors' statistics and the retired accumulator.
/// Call only while no transactions are running.
void stats_reset();

}  // namespace cstm
