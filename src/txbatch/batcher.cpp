#include "txbatch/batcher.hpp"

#include <utility>
#include <vector>

#include "stm/descriptor.hpp"
#include "stm/txn.hpp"

namespace cstm::txbatch {

Batcher::Batcher(BatcherOptions opts) : opts_(std::move(opts)) {
  if (opts_.max_batch == 0) opts_.max_batch = 1;
}

bool Batcher::deadline_expired() const {
  if (opts_.max_delay.count() == 0 || queue_.empty()) return false;
  return std::chrono::steady_clock::now() - oldest_enqueue_ >= opts_.max_delay;
}

Completion Batcher::enqueue(std::function<void(Tx&)> fn, std::uint64_t tag) {
  // An overdue queue flushes BEFORE the new op joins: the deadline is a
  // latency bound on the ops already waiting, not on the newcomer.
  if (deadline_expired()) flush();
  auto rec = std::make_shared<detail::OpRecord>();
  rec->fn = std::move(fn);
  rec->info = OpInfo{tag, next_seq_++};
  rec->retries_left = opts_.max_retries;
  if (queue_.empty()) oldest_enqueue_ = std::chrono::steady_clock::now();
  queue_.push_back(rec);
  ++stats_.ops_enqueued;
  if (queue_.size() >= opts_.max_batch) flush();
  return Completion(std::move(rec));
}

std::size_t Batcher::flush() {
  if (queue_.empty()) return 0;

  // Pull the longest policy-compatible FIFO prefix, capped at max_batch.
  std::vector<std::shared_ptr<detail::OpRecord>> batch;
  batch.reserve(opts_.max_batch);
  batch.push_back(queue_.front());
  queue_.pop_front();
  while (batch.size() < opts_.max_batch && !queue_.empty()) {
    if (opts_.policy &&
        !opts_.policy(batch.front()->info, queue_.front()->info)) {
      break;
    }
    batch.push_back(queue_.front());
    queue_.pop_front();
  }
  if (!queue_.empty()) oldest_enqueue_ = std::chrono::steady_clock::now();

  // One outer transaction for the whole batch; each op is a closed nested
  // transaction. `ran` records which ops completed IN THIS ATTEMPT — a
  // conflict abort of the outer transaction re-enters the body, so the
  // flags are reset there, not outside. An op whose nested transaction
  // user-aborts leaves its flag 0: the partial abort already rolled back
  // exactly its writes (captured memory included, via the nested undo
  // path), so execution simply proceeds to the next sibling.
  std::vector<std::uint8_t> ran(batch.size(), 0);
  try {
    atomic([&](Tx& tx) {
      ran.assign(batch.size(), 0);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        atomic([&, i](Tx& sub) {
          batch[i]->fn(sub);
          ran[i] = 1;  // last statement: unreached when the op aborts
        });
        (void)tx;
      }
    });
  } catch (...) {
    // A non-transactional exception cancelled the whole outer transaction:
    // every sibling's effects are gone, so no op may report kCommitted.
    for (auto& op : batch) {
      ++op->attempts;
      op->state = OpState::kFailed;
      ++stats_.ops_failed;
    }
    throw;
  }

  // The merged transaction committed: settle each op's fate.
  std::uint64_t compensated = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    auto& op = batch[i];
    ++op->attempts;
    if (ran[i]) {
      op->state = OpState::kCommitted;
      ++stats_.ops_committed;
    } else if (op->retries_left > 0) {
      --op->retries_left;
      op->state = OpState::kPending;
      if (queue_.empty()) oldest_enqueue_ = std::chrono::steady_clock::now();
      queue_.push_back(op);
      ++stats_.ops_requeued;
      ++compensated;
    } else {
      op->state = OpState::kFailed;
      ++stats_.ops_failed;
      ++compensated;
    }
  }
  ++stats_.batches;

  // Fold into the thread's TxStats so the harness can report merge traffic
  // and per-batch-size capture hit rates from one snapshot.
  Tx& tx = current_tx();
  tx.stats.batch_flushes += 1;
  tx.stats.batch_ops += batch.size();
  tx.stats.batch_op_compensations += compensated;
  return batch.size();
}

void Batcher::drain() {
  while (!queue_.empty()) flush();
}

}  // namespace cstm::txbatch
