// Advanced STM semantics: timestamp extension, false conflicts at orec
// granularity, the backoff contention policy and its accounting,
// dead-stack undo filtering, opacity under mixed loads, and the harness
// plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "stm/gclock.hpp"
#include "stm/orec.hpp"
#include "stm/stm.hpp"
#include "support/random.hpp"

namespace cstm {
namespace {

class StmAdvanced : public ::testing::Test {
 protected:
  void SetUp() override {
    set_global_config(TxConfig::baseline());
    stats_reset();
  }
  void TearDown() override { set_global_config(TxConfig::baseline()); }
};

TEST_F(StmAdvanced, TimestampExtensionAllowsLateReads) {
  // Reader starts, another thread commits to an unrelated location, reader
  // then reads the freshly versioned location: extension must succeed (the
  // read set is still valid) rather than abort.
  alignas(64) std::uint64_t a = 1;
  alignas(128) std::uint64_t b = 2;
  std::uint64_t seen_a = 0, seen_b = 0;
  atomic([&](Tx& tx) {
    seen_a = tm_read(tx, &a);
    std::thread([&] {
      atomic([&](Tx& tx2) { tm_write(tx2, &b, std::uint64_t{20}); });
    }).join();
    seen_b = tm_read(tx, &b);  // version > start_ts: triggers extension
  });
  EXPECT_EQ(seen_a, 1u);
  EXPECT_EQ(seen_b, 20u);
  EXPECT_EQ(stats_snapshot().aborts, 0u);
}

TEST_F(StmAdvanced, ConflictingUpdateAfterReadAborts) {
  // Same shape, but the other thread commits to the location we already
  // read: the transaction must abort and retry with the new value.
  alignas(64) std::uint64_t a = 1;
  alignas(128) std::uint64_t b = 2;
  int attempts = 0;
  std::uint64_t sum = 0;
  atomic([&](Tx& tx) {
    ++attempts;
    sum = tm_read(tx, &a);
    if (attempts == 1) {
      std::thread([&] {
        atomic([&](Tx& tx2) { tm_write(tx2, &a, std::uint64_t{100}); });
      }).join();
    }
    sum += tm_read(tx, &b);
    tm_write(tx, &b, sum);  // force write-set commit validation
  });
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(stats_snapshot().aborts, 1u);
  EXPECT_EQ(b, 102u);
}

TEST_F(StmAdvanced, FalseConflictsAtCacheLineGranularity) {
  // Two fields in one cache line map to one ownership record: a writer on
  // one field forces a reader of the other to revalidate (the false
  // conflicts the paper's elision reduces).
  struct alignas(64) Line {
    std::uint64_t x;
    std::uint64_t y;
  };
  Line line{1, 2};
  EXPECT_EQ(&orec_table().slot(&line.x), &orec_table().slot(&line.y));
  EXPECT_NE(&orec_table().slot(&line.x),
            &orec_table().slot(reinterpret_cast<char*>(&line) + 64));
}

TEST_F(StmAdvanced, ContentionPolicies) {
  // Eight threads on one counter under the one contention policy (abort
  // self, back off before the retry): no increment may be lost.
  alignas(64) std::uint64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        atomic([&](Tx& tx) { tm_add(tx, &counter, std::uint64_t{1}); });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, 40000u);
}

TEST_F(StmAdvanced, LockConflictAbortsCountAsBackoffAborts) {
  // This thread holds x's orec until the other thread's transaction has
  // started a second attempt. That transaction only writes x, so every
  // abort it takes is a lock conflict, and the contention counter must
  // account for each one.
  alignas(64) std::uint64_t x = 0;
  std::atomic<bool> locked{false};
  std::atomic<int> attempts{0};
  std::thread contender([&] {
    while (!locked.load()) std::this_thread::yield();
    atomic([&](Tx& tx) {
      attempts.fetch_add(1);
      tm_write(tx, &x, std::uint64_t{2});
    });
  });
  atomic([&](Tx& tx) {
    tm_write(tx, &x, std::uint64_t{1});
    locked.store(true);
    while (attempts.load() < 2) std::this_thread::yield();
  });
  contender.join();
  const TxStats s = stats_snapshot();
  EXPECT_EQ(x, 2u);
  EXPECT_GE(s.aborts, 1u);
  EXPECT_EQ(s.cm_aborts_backoff, s.aborts);
}

TEST_F(StmAdvanced, CancelEndsTheAbortStreak) {
  // A cancelled transaction must not hand its abort streak to the next,
  // unrelated one, whose first backoff would then start at a later step.
  int attempts = 0;
  atomic([&](Tx& tx) {
    if (++attempts <= 3) tx.abort_self();
    abort_tx();
  });
  EXPECT_EQ(attempts, 4);
  EXPECT_EQ(current_tx().consecutive_aborts, 0u);
}

TEST_F(StmAdvanced, ReadOnlyTransactionsDoNotAdvanceClock) {
  std::uint64_t x = 5;
  const std::uint64_t before = global_clock().load();
  for (int i = 0; i < 100; ++i) {
    atomic([&](Tx& tx) { (void)tm_read(tx, &x); });
  }
  EXPECT_EQ(global_clock().load(), before);
}

TEST_F(StmAdvanced, WritingTransactionsAdvanceClockOnce) {
  // A writing commit draws exactly ONE timestamp, however many writes it
  // made: a sole committer advances the clock by exactly 1 per commit.
  std::uint64_t x = 5;
  std::uint64_t prev = global_clock().load();
  for (int i = 0; i < 10; ++i) {
    atomic([&](Tx& tx) {
      tm_write(tx, &x, std::uint64_t(i));
      tm_write(tx, &x, std::uint64_t(i + 1));  // same orec: no extra stamp
    });
    const std::uint64_t now = global_clock().load();
    EXPECT_EQ(now, prev + 1) << "commit " << i;
    prev = now;
  }
}

TEST_F(StmAdvanced, RollbackReleasesOrecsWithAFreshVersion) {
  // Restoring the pre-lock word on rollback would let a reader whose two
  // orec samples straddle the lock/dirty-write/release cycle accept a dirty
  // value (ABA). The release must carry a newly drawn clock version.
  alignas(64) std::uint64_t x = 5;
  atomic([&](Tx& tx) { tm_write(tx, &x, std::uint64_t{6}); });
  const std::atomic<std::uint64_t>& rec = orec_table().slot(&x);
  const std::uint64_t before = rec.load();
  ASSERT_FALSE(orec::is_locked(before));
  atomic([&](Tx& tx) {
    tm_write(tx, &x, std::uint64_t{7});
    abort_tx();
  });
  const std::uint64_t after = rec.load();
  EXPECT_EQ(x, 6u);
  EXPECT_FALSE(orec::is_locked(after));
  EXPECT_EQ(after, orec::make_version(global_clock().load()));
  EXPECT_GT(after, before);
}

TEST_F(StmAdvanced, DeadStackUndoIsFiltered) {
  // A transaction writes a local through a full barrier, then aborts at
  // commit time (validation failure forced by a helper thread). The undo
  // entry targets a dead frame; restoring it would smash the commit path's
  // own stack. Passing this test at -O2 is the regression check for that.
  alignas(64) std::uint64_t shared_a = 0;
  int attempts = 0;
  atomic([&](Tx& tx) {
    ++attempts;
    std::uint64_t local[16];
    for (int i = 0; i < 16; ++i) {
      tm_write(tx, &local[i], std::uint64_t(i), kAutoSite);
    }
    (void)tm_read(tx, &shared_a);
    if (attempts == 1) {
      // Invalidate the read set so commit-time validation fails.
      std::thread([&] {
        atomic([&](Tx& tx2) { tm_add(tx2, &shared_a, std::uint64_t{1}); });
      }).join();
      tm_write(tx, &shared_a, std::uint64_t{99});  // aborts here or at commit
    }
  });
  EXPECT_GE(attempts, 2);
}

TEST_F(StmAdvanced, StackBoundsBracketTheThreadStack) {
  // Rollback skips undo entries in [stack_low, start_sp) as dead stack; an
  // unknown (zero) stack_low would make that window swallow every heap
  // address below the stack, and an abort would leave heap writes in place.
  auto check = [](const char* where) {
    const std::uint64_t local = 0;
    const std::uintptr_t low = current_tx().stack_low;
    EXPECT_NE(low, 0u) << where;
    EXPECT_LT(low, reinterpret_cast<std::uintptr_t>(&local)) << where;
  };
  check("main thread");
  std::thread([&] { check("std::thread"); }).join();
}

TEST_F(StmAdvanced, OpacityUnderMixedLoad) {
  // Invariant pair updated atomically; concurrent transactions compute with
  // the values (a zombie computing with inconsistent values would trip the
  // EXPECT below before aborting — our barriers must never return
  // inconsistent data).
  alignas(64) std::uint64_t u = 10;
  alignas(128) std::uint64_t v = 10;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(77 + static_cast<std::uint64_t>(t));
      while (!stop.load()) {
        if (rng.below(2) == 0) {
          atomic([&](Tx& tx) {
            const std::uint64_t nu = rng.below(1000);
            tm_write(tx, &u, nu);
            tm_write(tx, &v, nu);
          });
        } else {
          std::uint64_t ru = 0, rv = 0;
          atomic([&](Tx& tx) {
            ru = tm_read(tx, &u);
            rv = tm_read(tx, &v);
          });
          if (ru != rv) bad.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0u);
}

TEST_F(StmAdvanced, StatsResetZeroesEverything) {
  std::uint64_t x = 0;
  atomic([&](Tx& tx) { tm_write(tx, &x, std::uint64_t{1}); });
  EXPECT_GT(stats_snapshot().commits, 0u);
  stats_reset();
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.commits, 0u);
  EXPECT_EQ(s.writes, 0u);
}

TEST_F(StmAdvanced, StatsSurviveThreadExit) {
  std::thread([] {
    std::uint64_t x = 0;
    atomic([&](Tx& tx) { tm_write(tx, &x, std::uint64_t{1}); });
  }).join();
  EXPECT_GE(stats_snapshot().commits, 1u);  // retired into the accumulator
}

TEST_F(StmAdvanced, ConfigChangesApplyAtNextTransaction) {
  std::uint64_t x = 0;
  set_global_config(TxConfig::runtime_w());
  atomic([&](Tx& tx) {
    EXPECT_TRUE(tx.cfg.heap_write);
    tm_write(tx, &x, std::uint64_t{1});
  });
  set_global_config(TxConfig::baseline());
  atomic([&](Tx& tx) { EXPECT_FALSE(tx.cfg.heap_write); });
}

TEST_F(StmAdvanced, SiteDefaultsAreShared) {
  // A barrier without an explicit site counts as manually instrumented
  // (required) in count mode.
  set_global_config(TxConfig::counting());
  stats_reset();
  std::uint64_t x = 0;
  atomic([&](Tx& tx) { tm_write(tx, &x, std::uint64_t{1}); });
  EXPECT_EQ(stats_snapshot().write_required, 1u);
}

}  // namespace
}  // namespace cstm
