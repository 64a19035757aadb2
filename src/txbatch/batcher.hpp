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
//   queue ──FIFO──▶ [op1 op2 ... opN]  ──▶  atomic(outer) {
//                                             nested{op1} nested{op2} ...
//                                           }
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
//    by the nested undo path — and is failed INDIVIDUALLY, without
//    discarding its already-executed siblings' effects.
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
// (max_batch ops queued, or an explicit drain). Merge traffic is counted
// in TxStats (batch_flushes, batch_ops, batch_op_compensations).
#pragma once

#include <cstddef>
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
  kPending = 0,   // queued
  kCommitted = 1, // ran to completion inside a committed batch
  kFailed = 2,    // aborted (user abort), or the whole batch was cancelled
                  // by an escaping exception
};

namespace detail {
struct OpRecord {
  std::function<void(Tx&)> fn;
  OpState state = OpState::kPending;
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

 private:
  friend class Batcher;
  explicit Completion(std::shared_ptr<detail::OpRecord> rec)
      : rec_(std::move(rec)) {}
  std::shared_ptr<detail::OpRecord> rec_;
};

struct BatcherOptions {
  /// Flush as soon as this many ops are queued.
  std::size_t max_batch = 16;
};

class Batcher {
 public:
  explicit Batcher(BatcherOptions opts = {});

  /// Queues @p fn for execution inside a future merged transaction. Flushes
  /// synchronously before returning once max_batch ops are queued.
  Completion enqueue(std::function<void(Tx&)> fn);

  /// Executes one batch now (up to max_batch ops from the queue head)
  /// inside one outer transaction. Returns the number of ops run; 0 when
  /// the queue is empty.
  std::size_t flush();

  /// Flushes until the queue is empty.
  void drain();

  std::size_t pending() const { return queue_.size(); }

 private:
  BatcherOptions opts_;
  std::deque<std::shared_ptr<detail::OpRecord>> queue_;
};

}  // namespace cstm::txbatch
