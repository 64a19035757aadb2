// Closed nesting with partial abort (paper Section 2.2.1): a nested
// transaction's partial abort must restore memory live-in to the child —
// including captured memory of the *parent*, which is why the write barrier
// undo-logs captured writes at depth > 1.
#include <gtest/gtest.h>

#include <cstdint>

#include "stm/stm.hpp"

namespace cstm {
namespace {

class Nesting : public ::testing::Test {
 protected:
  void SetUp() override {
    set_global_config(TxConfig::baseline());
    stats_reset();
  }
  void TearDown() override { set_global_config(TxConfig::baseline()); }
};

TEST_F(Nesting, NestedCommitMergesIntoParent) {
  std::uint64_t x = 0, y = 0;
  atomic([&](Tx& tx) {
    tm_write(tx, &x, std::uint64_t{1});
    atomic([&](Tx& inner) { tm_write(inner, &y, std::uint64_t{2}); });
    EXPECT_EQ(tm_read(tx, &y), 2u);  // parent sees child's writes
  });
  EXPECT_EQ(x, 1u);
  EXPECT_EQ(y, 2u);
  EXPECT_EQ(stats_snapshot().commits, 1u);  // one top-level commit
}

TEST_F(Nesting, PartialAbortRollsBackOnlyInnerWrites) {
  std::uint64_t x = 0, y = 0;
  atomic([&](Tx& tx) {
    tm_write(tx, &x, std::uint64_t{1});
    atomic([&](Tx& inner) {
      tm_write(inner, &y, std::uint64_t{2});
      abort_tx();  // partial abort: only the inner level rolls back
    });
    EXPECT_EQ(tm_read(tx, &y), 0u);
    EXPECT_EQ(tm_read(tx, &x), 1u);  // parent's write survives
  });
  EXPECT_EQ(x, 1u);
  EXPECT_EQ(y, 0u);
}

TEST_F(Nesting, PartialAbortRestoresParentWrittenLocation) {
  std::uint64_t x = 5;
  atomic([&](Tx& tx) {
    tm_write(tx, &x, std::uint64_t{10});
    atomic([&](Tx& inner) {
      tm_write(inner, &x, std::uint64_t{20});  // same orec, owned by parent
      abort_tx();
    });
    EXPECT_EQ(tm_read(tx, &x), 10u);  // restored to the parent's value
  });
  EXPECT_EQ(x, 10u);
}

TEST_F(Nesting, PartialAbortRestoresParentCapturedHeap) {
  // Paper Section 2.2.1: memory captured by the parent is live-in for the
  // child; the child's elided writes still need undo logging.
  set_global_config(TxConfig::runtime_w());
  std::uint64_t observed = 0;
  atomic([&](Tx& tx) {
    auto* block = static_cast<std::uint64_t*>(tx_malloc(tx, 8));
    tm_write(tx, block, std::uint64_t{100}, kAutoSite);  // elided (captured)
    atomic([&](Tx& inner) {
      tm_write(inner, block, std::uint64_t{999}, kAutoSite);  // elided + undo
      abort_tx();
    });
    observed = tm_read(tx, block, kAutoSite);
    tx_free(tx, block);
  });
  EXPECT_EQ(observed, 100u);
}

TEST_F(Nesting, PartialAbortUndoesNestedAllocations) {
  std::uint64_t committed = 0;
  atomic([&](Tx& tx) {
    atomic([&](Tx& inner) {
      void* p = tx_malloc(inner, 64);
      (void)p;
      abort_tx();  // allocation rolled back with the level
    });
    tm_write(tx, &committed, std::uint64_t{1});
  });
  EXPECT_EQ(committed, 1u);
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.tx_allocs, 1u);
  EXPECT_EQ(s.commits, 1u);
}

TEST_F(Nesting, PartialAbortRestoresFreeOfParentBlock) {
  // A free performed inside an aborted child must be undone: the parent's
  // block stays allocated (and stays in the capture log).
  set_global_config(TxConfig::runtime_w());
  std::uint64_t result = 0;
  atomic([&](Tx& tx) {
    auto* block = static_cast<std::uint64_t*>(tx_malloc(tx, 8));
    tm_write(tx, block, std::uint64_t{7}, kAutoSite);
    atomic([&](Tx& inner) {
      tx_free(inner, block);
      abort_tx();  // the free must not happen
    });
    // Block is still live and still captured.
    tm_write(tx, block, std::uint64_t{8}, kAutoSite);
    result = tm_read(tx, block, kAutoSite);
    tx_free(tx, block);
  });
  EXPECT_EQ(result, 8u);
  const TxStats s = stats_snapshot();
  EXPECT_GE(s.write_elided_heap, 2u);  // both writes were elided
}

TEST_F(Nesting, DeeplyNestedPartialAborts) {
  std::uint64_t levels_run = 0;
  std::uint64_t cells[8] = {};
  atomic([&](Tx& tx) {
    ++levels_run;
    tm_write(tx, &cells[0], std::uint64_t{1});
    atomic([&](Tx& l2) {
      tm_write(l2, &cells[1], std::uint64_t{1});
      atomic([&](Tx& l3) {
        tm_write(l3, &cells[2], std::uint64_t{1});
        abort_tx();  // only level 3 rolls back
      });
      atomic([&](Tx& l3b) { tm_write(l3b, &cells[3], std::uint64_t{1}); });
    });
  });
  EXPECT_EQ(levels_run, 1u);
  EXPECT_EQ(cells[0], 1u);
  EXPECT_EQ(cells[1], 1u);
  EXPECT_EQ(cells[2], 0u);  // aborted level
  EXPECT_EQ(cells[3], 1u);  // sibling after the abort
}

TEST_F(Nesting, ConflictAbortInsideNestedRetriesWholeTransaction) {
  // A conflict abort anywhere rolls back all levels and retries from the
  // top; the nested structure re-executes.
  std::uint64_t attempts = 0;
  std::uint64_t x = 0;
  atomic([&](Tx&) {
    ++attempts;
    atomic([&](Tx& inner) { tm_write(inner, &x, attempts); });
  });
  EXPECT_EQ(attempts, 1u);  // no contention here: single attempt
  EXPECT_EQ(x, 1u);
}

TEST_F(Nesting, UserAbortAtTopLevelCancels) {
  std::uint64_t x = 3;
  atomic([&](Tx& tx) {
    tm_write(tx, &x, std::uint64_t{4});
    atomic([&](Tx& inner) { tm_write(inner, &x, std::uint64_t{5}); });
    abort_tx();  // cancels the whole transaction, no retry
  });
  EXPECT_EQ(x, 3u);
  EXPECT_EQ(stats_snapshot().commits, 0u);
}

}  // namespace
}  // namespace cstm
