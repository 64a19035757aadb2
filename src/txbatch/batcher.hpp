// txbatch: a transaction merging & batching front-end (ROADMAP direction 1,
// grounded in "Improving Database Performance by Application-side
// Transaction Merging").
//
// Tiny transactions leave the capture-elision machinery idle: they allocate
// little, so almost every access hits pre-existing shared data and pays a
// full barrier, and the per-transaction fixed costs (begin_top's plan check,
// commit_top's clock publication, orec releases and log reset) dominate the
// few useful accesses. The Batcher queues small transactional operations and
// executes N of them inside ONE outer STM transaction:
//
//   queue ──policy──▶ [op1 op2 ... opN]  ──▶  atomic(outer) {
//                                               nested{op1} nested{op2} ...
//                                             }
//
//  * Begin/commit costs are paid once per batch, not once per op.
//  * Memory allocated by op i is CAPTURED for every later op in the same
//    batch — merged transactions allocate more, so a larger fraction of
//    their footprint goes barrier-free (the paper's Section 3 machinery,
//    force-multiplied).
//  * Per-sub-transaction abort compensation: each op runs as a closed
//    nested transaction, so an op that aborts for its own reasons (user
//    retry/cancel via cstm::abort_tx()) is rolled back by the existing
//    partial-abort machinery — including captured-memory writes, restored
//    by the nested undo path — and is requeued or failed INDIVIDUALLY,
//    without discarding its already-executed siblings' effects.
//
// What is NOT compensated per-op: a conflict abort (TxAbortException)
// rolls back the whole outer transaction and the standard retry loop
// re-executes the entire batch — ops must therefore be idempotent under
// re-execution, exactly like any transactional closure. A non-transactional
// exception escaping an op cancels the whole batch (every queued sibling's
// effects are discarded), marks all its ops kFailed, and propagates.
//
// Threading contract: a Batcher is a same-thread object. Ops enqueued on
// one thread execute on that thread, in FIFO order, when a flush runs
// (size reached, enqueue-time deadline exceeded, or explicit drain). For
// server-style request batches, give each worker thread its own Batcher
// and route compatible requests to it; the compatibility policy hook
// below decides which queued ops may merge into one outer transaction.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

namespace cstm {
class Tx;
}

namespace cstm::txbatch {

/// Lifecycle of one enqueued op, observable through its Completion token.
enum class OpState : std::uint8_t {
  kPending = 0,   // queued, or requeued after a compensated abort
  kCommitted = 1, // ran to completion inside a committed batch
  kFailed = 2,    // aborted (user abort) with no retry budget left, or the
                  // whole batch was cancelled by an escaping exception
};

/// What a compatibility policy sees about an op. `tag` is caller-assigned
/// (shard id, session id, table id — whatever "compatible" means for the
/// workload); `seq` is the op's FIFO position since the Batcher was built.
struct OpInfo {
  std::uint64_t tag = 0;
  std::uint64_t seq = 0;
};

/// Decides whether `candidate` may join a batch currently led by `head`.
/// Returning false closes the batch: the candidate stays queued and leads
/// the next one. The default (no policy installed) is the conservative
/// same-thread FIFO merge: any op merges, because the queue already IS the
/// program order of a single thread. Server batches install a predicate
/// (e.g. same-shard tags only) to keep incompatible requests apart.
using MergePolicy = std::function<bool(const OpInfo& head, const OpInfo& candidate)>;

namespace detail {
struct OpRecord {
  std::function<void(Tx&)> fn;
  OpInfo info;
  OpState state = OpState::kPending;
  unsigned attempts = 0;      // completed batch executions that included it
  unsigned retries_left = 0;  // compensated-abort requeue budget
};
}  // namespace detail

/// Completion token returned by Batcher::enqueue — the caller's handle for
/// the op's fate after some later flush ran it. Cheap to copy; outlives the
/// Batcher safely.
class Completion {
 public:
  Completion() = default;
  /// kPending until a flush decided the op's fate.
  OpState state() const { return rec_ ? rec_->state : OpState::kFailed; }
  bool committed() const { return state() == OpState::kCommitted; }
  bool failed() const { return state() == OpState::kFailed; }
  /// How many batch executions included this op (>1 after requeues).
  unsigned attempts() const { return rec_ ? rec_->attempts : 0; }

 private:
  friend class Batcher;
  explicit Completion(std::shared_ptr<detail::OpRecord> rec)
      : rec_(std::move(rec)) {}
  std::shared_ptr<detail::OpRecord> rec_;
};

struct BatcherOptions {
  /// Flush as soon as this many compatible ops are queued.
  std::size_t max_batch = 16;
  /// When nonzero: an enqueue that finds the oldest queued op older than
  /// this flushes first (same-thread Batchers have no background timer, so
  /// the deadline is checked at enqueue and drain boundaries).
  std::chrono::microseconds max_delay{0};
  /// Requeue budget for ops whose nested transaction user-aborts: 0 means
  /// one strike and the op is kFailed (no hidden infinite retry loops).
  unsigned max_retries = 0;
  /// Compatibility policy; empty = same-thread FIFO merge (see MergePolicy).
  MergePolicy policy;
};

struct BatcherStats {
  std::uint64_t batches = 0;        // outer transactions committed
  std::uint64_t ops_enqueued = 0;
  std::uint64_t ops_committed = 0;
  std::uint64_t ops_failed = 0;
  std::uint64_t ops_requeued = 0;   // compensated aborts sent back to queue
};

class Batcher {
 public:
  explicit Batcher(BatcherOptions opts = {});

  /// Queues @p fn for execution inside a future merged transaction. May
  /// flush synchronously (size or deadline reached) before returning.
  Completion enqueue(std::function<void(Tx&)> fn, std::uint64_t tag = 0);

  /// Executes one batch now (up to max_batch compatible ops from the queue
  /// head) inside one outer transaction. Returns the number of ops run; 0
  /// when the queue is empty.
  std::size_t flush();

  /// Flushes until the queue is empty, including ops requeued by the
  /// compensation path during the drain itself.
  void drain();

  std::size_t pending() const { return queue_.size(); }
  const BatcherStats& stats() const { return stats_; }
  const BatcherOptions& options() const { return opts_; }

 private:
  bool deadline_expired() const;

  BatcherOptions opts_;
  BatcherStats stats_;
  std::deque<std::shared_ptr<detail::OpRecord>> queue_;
  std::chrono::steady_clock::time_point oldest_enqueue_{};
  std::uint64_t next_seq_ = 0;
};

}  // namespace cstm::txbatch
