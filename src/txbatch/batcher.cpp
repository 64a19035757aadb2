#include "txbatch/batcher.hpp"

#include <utility>
#include <vector>

#include "stm/descriptor.hpp"
#include "stm/txn.hpp"

namespace cstm::txbatch {

Batcher::Batcher(BatcherOptions opts) : opts_(opts) {
  if (opts_.max_batch == 0) opts_.max_batch = 1;
}

Completion Batcher::enqueue(std::function<void(Tx&)> fn) {
  auto rec = std::make_shared<detail::OpRecord>();
  rec->fn = std::move(fn);
  queue_.push_back(rec);
  if (queue_.size() >= opts_.max_batch) flush();
  return Completion(std::move(rec));
}

std::size_t Batcher::flush() {
  if (queue_.empty()) return 0;

  // Pull the FIFO prefix, capped at max_batch.
  std::vector<std::shared_ptr<detail::OpRecord>> batch;
  batch.reserve(opts_.max_batch);
  while (batch.size() < opts_.max_batch && !queue_.empty()) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }

  // One outer transaction for the whole batch; each op is a closed nested
  // transaction. `ran` records which ops completed IN THIS ATTEMPT — a
  // conflict abort of the outer transaction re-enters the body, so the
  // flags are reset there, not outside. An op whose nested transaction
  // user-aborts leaves its flag 0: the partial abort already rolled back
  // exactly its writes (captured memory included, via the nested undo
  // path), so execution simply proceeds to the next sibling.
  std::vector<std::uint8_t> ran(batch.size(), 0);
  try {
    atomic([&](Tx&) {
      ran.assign(batch.size(), 0);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        atomic([&, i](Tx& sub) {
          batch[i]->fn(sub);
          ran[i] = 1;  // last statement: unreached when the op aborts
        });
      }
    });
  } catch (...) {
    // A non-transactional exception cancelled the whole outer transaction:
    // every sibling's effects are gone, so no op may report kCommitted.
    for (auto& op : batch) op->state = OpState::kFailed;
    throw;
  }

  // The merged transaction committed: settle each op's fate.
  std::uint64_t compensated = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i]->state = ran[i] ? OpState::kCommitted : OpState::kFailed;
    if (!ran[i]) ++compensated;
  }

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
