// Crash-injection recovery harness: for EVERY step of the durable commit
// sequence (the CrashPoint enumeration), fork a child that _exit()s at
// exactly that step mid-transaction, then reopen the heap in the parent
// and check the recovered state. The invariant under test:
//
//   crash strictly before CrashPoint::kAfterCommitRecordFlush
//       -> recovery yields the full PRE-transaction state
//   crash at kAfterCommitRecordFlush (the commit point) or later
//       -> recovery yields the full POST-transaction state
//
// and never a torn mix. The fork gives a faithful simulated power cut:
// pwb() bytes live in the MAP_SHARED mapping the parent also sees; the
// child's volatile working copy dies with it.
//
// Digests are reachability-based — the bump cursor, the root slots, and
// the blocks that root slots 0/1 point at — so write-back garbage in
// unreachable free space (e.g. a captured block persisted ahead of a
// commit record that never landed) is correctly invisible.
//
// Three victim shapes cover the machinery: a single mixed transaction
// (captured alloc + non-captured region stores), a transaction with a
// nested partial abort (the aborted level's stores and allocation must not
// be in the recovered state on either side of the commit point), and a
// txbatch merged batch with one compensated op. A fourth scenario crashes
// the SECOND of two transactions to prove single-slot log reuse: the
// first transaction's stale-but-valid record must never replay over the
// watermark. A last case reopens after a crash that left a captured block
// on the medium past the cursor: open() must load that garbage exactly,
// and the next allocation over it must still come back zeroed.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "durable/durable_heap.hpp"
#include "durable/pwb.hpp"
#include "stm/stm.hpp"

namespace cstm {
namespace {

// -- Crash hook (child side) --------------------------------------------------

dur::CrashPoint g_target = dur::CrashPoint::kCount;
int g_remaining = 0;  // occurrences of g_target to let pass before dying

void crash_hook(dur::CrashPoint p) {
  if (p == g_target && g_remaining-- == 0) ::_exit(42);
}

// -- Workloads ----------------------------------------------------------------
// Slot convention (digest relies on it): slots 0 and 1 hold offsets of
// 64-byte blocks when nonzero; slots 2..5 hold plain values.

constexpr AllocLogKind kLog = AllocLogKind::kTree;

void setup(const std::string& path) {
  dur::DurableHeap heap;
  ASSERT_TRUE(heap.open(path));
  heap.activate();
  set_global_config(TxConfig::durable_rw(kLog));
  atomic([&](Tx& tx) {
    auto* p = static_cast<std::uint64_t*>(heap.alloc(tx, 64));
    for (int i = 0; i < 8; ++i) {
      tm_write(tx, &p[i], std::uint64_t(0xA00 + i), kAutoSite);
    }
    tm_write(tx, heap.root_slot(0), heap.offset_of(p));
    tm_write(tx, heap.root_slot(2), std::uint64_t{1000});
    tm_write(tx, heap.root_slot(3), std::uint64_t{1001});
  });
  heap.deactivate();
  heap.close();
  set_global_config(TxConfig::baseline());
}

// Mixed single transaction: redo-logged stores into the setup block (not
// captured — allocated by an earlier transaction) plus a captured fresh
// allocation published through a redo-logged root store.
void victim_single(dur::DurableHeap& heap) {
  atomic([&](Tx& tx) {
    auto* old_block = static_cast<std::uint64_t*>(
        heap.at(tm_read(tx, heap.root_slot(0))));
    for (int i = 0; i < 4; ++i) {
      tm_write(tx, &old_block[i], std::uint64_t(0xB00 + i));
    }
    auto* p = static_cast<std::uint64_t*>(heap.alloc(tx, 64));
    for (int i = 0; i < 8; ++i) {
      tm_write(tx, &p[i], std::uint64_t(0xC00 + i), kAutoSite);
    }
    tm_write(tx, heap.root_slot(1), heap.offset_of(p));
    tm_write(tx, heap.root_slot(2), std::uint64_t{2000});
  });
}

// Nested partial abort inside the durable transaction: the aborted level's
// root store and allocation must be absent from the recovered state on
// BOTH sides of the commit point.
void victim_nested(dur::DurableHeap& heap) {
  atomic([&](Tx& tx) {
    tm_write(tx, heap.root_slot(2), std::uint64_t{3000});
    atomic([&](Tx& inner) {
      tm_write(inner, heap.root_slot(3), std::uint64_t{0xDEAD});
      (void)heap.alloc(inner, 64);
      abort_tx();
    });
    tm_write(tx, heap.root_slot(3), std::uint64_t{4000});
    auto* p = static_cast<std::uint64_t*>(heap.alloc(tx, 64));
    for (int i = 0; i < 8; ++i) {
      tm_write(tx, &p[i], std::uint64_t(0xD00 + i), kAutoSite);
    }
    tm_write(tx, heap.root_slot(1), heap.offset_of(p));
  });
}

// txbatch merged batch: four ops in one top-level durable commit, the
// third compensated by per-op abort — its store must never persist while
// its siblings' all do.
void victim_batch(dur::DurableHeap& heap) {
  txbatch::BatcherOptions opts;
  opts.max_batch = 4;
  txbatch::Batcher batcher(opts);
  batcher.enqueue([&heap](Tx& tx) {
    tm_write(tx, heap.root_slot(2), std::uint64_t{5000});
  });
  batcher.enqueue([&heap](Tx& tx) {
    auto* p = static_cast<std::uint64_t*>(heap.alloc(tx, 64));
    for (int i = 0; i < 8; ++i) {
      tm_write(tx, &p[i], std::uint64_t(0xE00 + i), kAutoSite);
    }
    tm_write(tx, heap.root_slot(1), heap.offset_of(p));
  });
  batcher.enqueue([&heap](Tx& tx) {
    tm_write(tx, heap.root_slot(3), std::uint64_t{0xDEAD});
    abort_tx();  // compensated: fails alone, siblings commit
  });
  batcher.enqueue([&heap](Tx& tx) {
    auto* old_block = static_cast<std::uint64_t*>(
        heap.at(tm_read(tx, heap.root_slot(0))));
    tm_write(tx, &old_block[0], std::uint64_t{0xF00});
  });
  batcher.drain();
}

// Second transaction for the log-slot-reuse scenario.
void victim_second(dur::DurableHeap& heap) {
  atomic([&](Tx& tx) {
    tm_write(tx, heap.root_slot(4), std::uint64_t{7777});
  });
}

enum Kind { kSingle = 0, kNested, kBatch, kReuse };

void run_victim(dur::DurableHeap& heap, Kind kind) {
  switch (kind) {
    case kSingle: victim_single(heap); break;
    case kNested: victim_nested(heap); break;
    case kBatch: victim_batch(heap); break;
    case kReuse:
      victim_single(heap);
      victim_second(heap);
      break;
  }
}

// -- Digest (parent side) -----------------------------------------------------

std::uint64_t digest(const std::string& path) {
  dur::DurableHeap heap;
  if (!heap.open(path)) return 0;
  std::uint64_t d = 14695981039346656037ull;
  auto mix = [&d](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      d ^= b[i];
      d *= 1099511628211ull;
    }
  };
  mix(heap.at(0), 8);  // bump cursor
  for (std::size_t i = 0; i < dur::DurableHeap::kRootSlots; ++i) {
    mix(heap.root_slot(i), 8);
  }
  for (std::size_t i = 0; i < 2; ++i) {  // slots 0/1: reachable blocks
    const std::uint64_t off = *heap.root_slot(i);
    if (off != 0) mix(heap.at(off), 64);
  }
  heap.close();
  return d;
}

// -- Harness ------------------------------------------------------------------

std::string scratch_path(const char* tag) {
  const char* tmpdir = std::getenv("TMPDIR");
  return std::string(tmpdir != nullptr ? tmpdir : "/tmp") + "/cstm_crash_" +
         tag + "_" + std::to_string(::getpid()) + ".heap";
}

// Reference digest: setup plus @p txs uncrashed victim transactions.
std::uint64_t reference_digest(const char* tag, Kind kind, int txs) {
  const std::string path = scratch_path(tag);
  std::remove(path.c_str());
  setup(path);
  if (txs > 0) {
    dur::DurableHeap heap;
    EXPECT_TRUE(heap.open(path));
    heap.activate();
    set_global_config(TxConfig::durable_rw(kLog));
    if (kind == kReuse && txs == 1) {
      victim_single(heap);
    } else {
      run_victim(heap, kind);
    }
    heap.deactivate();
    heap.close();
    set_global_config(TxConfig::baseline());
  }
  const std::uint64_t d = digest(path);
  std::remove(path.c_str());
  return d;
}

[[noreturn]] void child_main(const std::string& path, Kind kind,
                             dur::CrashPoint target, int skip) {
  dur::DurableHeap heap;
  if (!heap.open(path)) ::_exit(3);
  heap.activate();
  set_global_config(TxConfig::durable_rw(kLog));
  g_target = target;
  g_remaining = skip;
  dur::set_crash_hook(&crash_hook);
  run_victim(heap, kind);
  ::_exit(0);  // target point never fired — the parent flags this
}

// Forks a child that crashes at occurrence @p skip of @p target inside the
// victim, waits for it, and returns the recovered digest.
std::uint64_t crash_and_recover(const std::string& path, Kind kind,
                                dur::CrashPoint target, int skip) {
  const pid_t pid = ::fork();
  if (pid == 0) child_main(path, kind, target, skip);
  EXPECT_GT(pid, 0);
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 42)
      << "child did not crash at " << dur::crash_point_name(target);
  return digest(path);
}

class DurableRecovery : public ::testing::Test {
 protected:
  void SetUp() override {
    set_global_config(TxConfig::baseline());
    stats_reset();
  }
  void TearDown() override {
    if (dur::DurableHeap::active() != nullptr) {
      dur::DurableHeap::active()->deactivate();
    }
    set_global_config(TxConfig::baseline());
  }

  // Every crash point, one fresh heap each: pre-state before the commit
  // point, post-state at and after it, never a torn mix.
  void run_all_points(const char* tag, Kind kind, int skip,
                      std::uint64_t d_pre, std::uint64_t d_post) {
    for (int i = 0; i < static_cast<int>(dur::CrashPoint::kCount); ++i) {
      const auto point = static_cast<dur::CrashPoint>(i);
      const std::string path = scratch_path(tag);
      std::remove(path.c_str());
      setup(path);
      const std::uint64_t d = crash_and_recover(path, kind, point, skip);
      const bool committed = point >= dur::CrashPoint::kAfterCommitRecordFlush;
      EXPECT_EQ(d, committed ? d_post : d_pre)
          << tag << " crashed at " << dur::crash_point_name(point)
          << ": recovered state is neither clean pre nor clean post";
      std::remove(path.c_str());
    }
  }
};

TEST_F(DurableRecovery, SingleTransactionAtomicAtEveryCrashPoint) {
  const std::uint64_t d_pre = reference_digest("single_pre", kSingle, 0);
  const std::uint64_t d_post = reference_digest("single_post", kSingle, 1);
  ASSERT_NE(d_pre, d_post);  // the victim must actually change reachable state
  run_all_points("single", kSingle, 0, d_pre, d_post);
}

TEST_F(DurableRecovery, NestedPartialAbortAtomicAtEveryCrashPoint) {
  const std::uint64_t d_pre = reference_digest("nested_pre", kNested, 0);
  const std::uint64_t d_post = reference_digest("nested_post", kNested, 1);
  ASSERT_NE(d_pre, d_post);
  run_all_points("nested", kNested, 0, d_pre, d_post);
}

TEST_F(DurableRecovery, MergedBatchAtomicAtEveryCrashPoint) {
  const std::uint64_t d_pre = reference_digest("batch_pre", kBatch, 0);
  const std::uint64_t d_post = reference_digest("batch_post", kBatch, 1);
  ASSERT_NE(d_pre, d_post);
  run_all_points("batch", kBatch, 0, d_pre, d_post);
}

TEST_F(DurableRecovery, SingleSlotLogReuseNeverReplaysStaleRecord) {
  // Crash the SECOND transaction at every point (skip=1 lets the first
  // commit pass each point once). Before the second commit point the
  // recovered state must be exactly post-tx1 — in particular at
  // kBeforeCommit, where the log slot still holds tx1's complete, valid
  // record and only the applied-seq watermark stops a double replay.
  const std::uint64_t d_tx1 = reference_digest("reuse_tx1", kReuse, 1);
  const std::uint64_t d_tx2 = reference_digest("reuse_tx2", kReuse, 2);
  ASSERT_NE(d_tx1, d_tx2);
  run_all_points("reuse", kReuse, 1, d_tx1, d_tx2);
}

TEST_F(DurableRecovery, GarbagePastCursorReloadsExactlyAndAllocZeroes) {
  // A crash after the captured write-back leaves the victim's block on the
  // medium past the (uncommitted) cursor. Reopening must load it byte for
  // byte — the working copy is an exact image of the medium — and the
  // next allocation, which lands on the same bytes, must still be zeroed.
  const std::string path = scratch_path("garbage");
  std::remove(path.c_str());
  setup(path);
  (void)crash_and_recover(path, kSingle,
                          dur::CrashPoint::kAfterCapturedWriteback, 0);
  dur::DurableHeap heap;
  ASSERT_TRUE(heap.open(path));
  const std::uint64_t cursor = *static_cast<std::uint64_t*>(heap.at(0));
  EXPECT_EQ(*heap.root_slot(1), 0u);  // the block was never published
  auto* garbage = static_cast<std::uint64_t*>(heap.at(cursor));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(garbage[i], std::uint64_t(0xC00 + i)) << "word " << i;
  }
  heap.activate();
  set_global_config(TxConfig::durable_rw(kLog));
  atomic([&](Tx& tx) {
    auto* p = static_cast<std::uint64_t*>(heap.alloc(tx, 64));
    EXPECT_EQ(heap.offset_of(p), cursor);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(tm_read(tx, &p[i]), 0u) << "word " << i;
    }
  });
  heap.deactivate();
  heap.close();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cstm
