// txbatch merge layer: FIFO merging, completion tokens, the TxStats merge
// counters, and — the part that earns the subsystem its place — per-sub-
// transaction abort compensation: an op that user-aborts inside a merged
// batch is rolled back by the nested partial-abort machinery (captured
// memory included) and failed INDIVIDUALLY, leaving its siblings' effects
// committed.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "stamp/app.hpp"
#include "stm/stm.hpp"

namespace cstm {
namespace {

class TxBatch : public ::testing::Test {
 protected:
  void SetUp() override {
    set_global_config(TxConfig::baseline());
    stats_reset();
  }
  void TearDown() override { set_global_config(TxConfig::baseline()); }
};

TEST_F(TxBatch, DrainRunsOpsInFifoOrder) {
  txbatch::BatcherOptions opts;
  opts.max_batch = 64;  // nothing flushes until drain
  txbatch::Batcher batcher(opts);
  std::vector<int> order;
  std::vector<txbatch::Completion> tokens;
  for (int i = 0; i < 5; ++i) {
    tokens.push_back(
        batcher.enqueue([&order, i](Tx&) { order.push_back(i); }));
  }
  EXPECT_EQ(batcher.pending(), 5u);
  for (const auto& t : tokens) EXPECT_EQ(t.state(), txbatch::OpState::kPending);
  batcher.drain();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  for (const auto& t : tokens) EXPECT_TRUE(t.committed());
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.batch_flushes, 1u);
  EXPECT_EQ(s.batch_ops, 5u);
  EXPECT_EQ(s.batch_op_compensations, 0u);
  // One merged batch = ONE top-level commit.
  EXPECT_EQ(s.commits, 1u);
}

TEST_F(TxBatch, SizeTriggeredFlushInsideEnqueue) {
  txbatch::BatcherOptions opts;
  opts.max_batch = 4;
  txbatch::Batcher batcher(opts);
  std::uint64_t cell = 0;
  for (int i = 0; i < 4; ++i) {
    batcher.enqueue([&cell](Tx& tx) { tm_write(tx, &cell, tm_read(tx, &cell) + 1); });
  }
  // The 4th enqueue hit max_batch and flushed synchronously.
  EXPECT_EQ(batcher.pending(), 0u);
  EXPECT_EQ(stats_snapshot().batch_flushes, 1u);
  EXPECT_EQ(cell, 4u);
}

TEST_F(TxBatch, CompensatedAbortLeavesSiblingsCommitted) {
  // Op 3 of 8 deliberately aborts: ops 0..2 stay committed, ops 4..7 run
  // unaffected, and only op 3 is failed.
  txbatch::BatcherOptions opts;
  opts.max_batch = 8;
  txbatch::Batcher batcher(opts);
  std::uint64_t cells[8] = {};
  std::vector<txbatch::Completion> tokens;
  for (int i = 0; i < 8; ++i) {
    tokens.push_back(batcher.enqueue([&cells, i](Tx& tx) {
      tm_write(tx, &cells[i], std::uint64_t{1});
      if (i == 3) abort_tx();
    }));
  }
  batcher.drain();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(cells[i], i == 3 ? 0u : 1u) << "cell " << i;
    EXPECT_EQ(tokens[static_cast<std::size_t>(i)].committed(), i != 3);
  }
  EXPECT_TRUE(tokens[3].failed());
  EXPECT_EQ(batcher.pending(), 0u);  // failed, not put back in the queue
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.commits, 1u);  // the merged transaction still committed
  EXPECT_EQ(s.nested_partial_aborts, 1u);
  EXPECT_EQ(s.batch_flushes, 1u);
  EXPECT_EQ(s.batch_ops, 8u);
  EXPECT_EQ(s.batch_op_compensations, 1u);
}

TEST_F(TxBatch, CompensationRestoresCapturedMemory) {
  // The aborting op writes to memory CAPTURED by an earlier sibling (heap
  // allocated in the same outer transaction, so its write barrier is
  // elided). The nested undo path must restore it anyway.
  set_global_config(TxConfig::runtime_w());
  txbatch::BatcherOptions opts;
  opts.max_batch = 4;
  txbatch::Batcher batcher(opts);
  std::uint64_t* block = nullptr;
  std::uint64_t observed = 0;
  batcher.enqueue([&block](Tx& tx) {
    block = static_cast<std::uint64_t*>(tx_malloc(tx, 8));
    tm_write(tx, block, std::uint64_t{100}, kAutoSite);  // elided (captured)
  });
  batcher.enqueue([&block](Tx& tx) {
    tm_write(tx, block, std::uint64_t{999}, kAutoSite);  // elided + undo-logged
    abort_tx();
  });
  batcher.enqueue([&block, &observed](Tx& tx) {
    observed = tm_read(tx, block, kAutoSite);
    tx_free(tx, block);
  });
  batcher.drain();
  EXPECT_EQ(observed, 100u);  // sibling's 999 was rolled back
  const TxStats s = stats_snapshot();
  EXPECT_GE(s.write_elided_heap, 2u);
  EXPECT_EQ(s.nested_partial_aborts, 1u);
}

TEST_F(TxBatch, EscapingExceptionCancelsWholeBatch) {
  // A non-transactional exception is NOT compensated per-op: the outer
  // transaction cancels, every sibling's effects are discarded, all ops in
  // the batch are failed, and the exception reaches the caller.
  txbatch::BatcherOptions opts;
  opts.max_batch = 64;  // keep enqueue from flushing; the throw happens in drain
  txbatch::Batcher batcher(opts);
  std::uint64_t cell = 0;
  auto a = batcher.enqueue(
      [&cell](Tx& tx) { tm_write(tx, &cell, std::uint64_t{1}); });
  auto b = batcher.enqueue([](Tx&) { throw std::runtime_error("boom"); });
  auto c = batcher.enqueue(
      [&cell](Tx& tx) { tm_write(tx, &cell, std::uint64_t{2}); });
  EXPECT_THROW(batcher.drain(), std::runtime_error);
  EXPECT_EQ(cell, 0u);  // sibling's write rolled back with the cancel
  EXPECT_TRUE(a.failed());
  EXPECT_TRUE(b.failed());
  EXPECT_TRUE(c.failed());
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.commits, 0u);
  EXPECT_EQ(s.batch_flushes, 0u);  // a cancelled batch folds no merge counters
}

TEST_F(TxBatch, EmptyFlushIsANoOp) {
  txbatch::Batcher batcher;
  EXPECT_EQ(batcher.flush(), 0u);
  batcher.drain();
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.batch_flushes, 0u);
  EXPECT_EQ(s.commits, 0u);
}

TEST_F(TxBatch, BatchingAmortizesCommitsAndRaisesCaptureHits) {
  // The subsystem's reason to exist, in miniature: the same allocate-and-
  // link workload at batch 1 vs batch 16 must commit 16x fewer top-level
  // transactions and elide strictly more accesses (later ops read memory
  // captured earlier in the merged transaction).
  set_global_config(TxConfig::runtime_rw(AllocLogKind::kTree));
  constexpr int kOps = 32;
  auto run_at = [&](std::size_t batch_size) {
    stats_reset();
    txbatch::BatcherOptions opts;
    opts.max_batch = batch_size;
    txbatch::Batcher batcher(opts);
    std::uint64_t* head = nullptr;  // chain of [value, next] pairs
    for (int i = 0; i < kOps; ++i) {
      batcher.enqueue([&head, i](Tx& tx) {
        auto* node = static_cast<std::uint64_t*>(tx_malloc(tx, 16));
        tm_write(tx, node, static_cast<std::uint64_t>(i), kAutoSite);
        tm_write(tx, node + 1, reinterpret_cast<std::uint64_t>(head),
                 kAutoSite);
        // Walk the chain: at batch 1 every hop touches pre-batch memory;
        // merged, the freshest nodes are captured and barrier-free.
        for (std::uint64_t* p = node;
             p != nullptr;
             p = reinterpret_cast<std::uint64_t*>(tm_read(tx, p + 1, kAutoSite))) {
        }
        head = node;
      });
    }
    batcher.drain();
    return stats_snapshot();
  };
  const TxStats single = run_at(1);
  const TxStats merged = run_at(16);
  EXPECT_EQ(single.commits, 32u);
  EXPECT_EQ(merged.commits, 2u);
  EXPECT_GT(merged.capture_hit_percent(), single.capture_hit_percent());
}

}  // namespace
}  // namespace cstm

// The harness streaming runner on a real workload, small scale: every
// request replays through the Batcher and the app must still verify, at
// several merge factors, with zero lost requests.
namespace cstm::stamp {
namespace {

TEST(TxBatchStream, IntruderVerifiesAtEveryMergeFactor) {
  set_global_config(TxConfig::runtime_rw(AllocLogKind::kTree));
  for (const std::size_t batch : {std::size_t{1}, std::size_t{8}, std::size_t{64}}) {
    stats_reset();
    auto app = make_app("intruder");
    AppParams params;
    params.threads = 2;
    params.scale = 0.05;
    std::uint64_t requests = 0;
    run_app_stream(*app, params, batch, &requests);  // aborts on verify failure
    EXPECT_GT(requests, 0u);
    const TxStats s = stats_snapshot();
    EXPECT_EQ(s.batch_ops, requests);
    EXPECT_EQ(s.batch_op_compensations, 0u);
  }
  set_global_config(TxConfig::baseline());
}

TEST(TxBatchStream, VacationVerifiesAtEveryMergeFactor) {
  set_global_config(TxConfig::runtime_rw(AllocLogKind::kTree));
  for (const std::size_t batch : {std::size_t{1}, std::size_t{16}}) {
    stats_reset();
    auto app = make_app("vacation-low");
    AppParams params;
    params.threads = 2;
    params.scale = 0.05;
    std::uint64_t requests = 0;
    run_app_stream(*app, params, batch, &requests);
    EXPECT_GT(requests, 0u);
    EXPECT_EQ(stats_snapshot().batch_ops, requests);
  }
  set_global_config(TxConfig::baseline());
}

}  // namespace
}  // namespace cstm::stamp
