// Cross-config differential torture test.
//
// Barrier elision — static, runtime, or none — may change SPEED, never
// OUTCOMES. This suite runs one randomized container+malloc workload to a
// fixed seed under EVERY barrier preset (full / static / stack+heap+priv
// and heap-only across all three alloc-log structures / heap reads only /
// counting), plus a durable-mode cross (redo logging + flush accounting riding commit), and asserts
// bit-identical final state and identical commit counts across all of them.
//
// The workload is single-threaded on purpose: with no conflicts the
// execution is fully deterministic, so any digest divergence is a real
// elision bug (a skipped undo log, a store that bypassed isolation, a
// nested abort that restored the wrong bytes), not scheduling noise. The
// concurrent analogue lives in tests/test_concurrent.cpp.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "containers/containers.hpp"
#include "durable/durable_heap.hpp"
#include "stm/stm.hpp"
#include "support/random.hpp"

namespace cstm {
namespace {

constexpr std::uint64_t kSeed = 0x5eed2009u;
constexpr int kSteps = 12000;
constexpr std::uint64_t kKeyRange = 256;

/// Every barrier preset named by the paper plus a heap-read-only config no
/// preset names (reads checked, writes full): 13 barrier presets and 3
/// durable.
std::vector<std::pair<std::string, TxConfig>> all_presets() {
  return {
      {"full", TxConfig::baseline()},
      {"static", TxConfig::compiler()},
      {"rw_tree", TxConfig::runtime_rw(AllocLogKind::kTree)},
      {"rw_array", TxConfig::runtime_rw(AllocLogKind::kArray)},
      {"rw_filter", TxConfig::runtime_rw(AllocLogKind::kFilter)},
      {"w_tree", TxConfig::runtime_w(AllocLogKind::kTree)},
      {"w_array", TxConfig::runtime_w(AllocLogKind::kArray)},
      {"w_filter", TxConfig::runtime_w(AllocLogKind::kFilter)},
      {"heap_w_tree", TxConfig::runtime_heap_w(AllocLogKind::kTree)},
      {"heap_w_array", TxConfig::runtime_heap_w(AllocLogKind::kArray)},
      {"heap_w_filter", TxConfig::runtime_heap_w(AllocLogKind::kFilter)},
      {"heap_r_tree", TxConfig{.heap_read = true}},
      {"counting", TxConfig::counting()},
      // Durable mode: the redo-log serialization + flush leg rides commit
      // and may change PERSISTENCE only, never outcomes. No heap is active
      // in this suite, so these run against the fallback volatile log —
      // the identical serialization/accounting code path, minus the
      // medium. Crossed with the three barrier families whose elision
      // decisions feed the redo log differently: none (every store
      // logged), static, runtime stack+heap.
      {"durable_full", TxConfig::durable_baseline()},
      {"durable_static", TxConfig::compiler().with_durable()},
      {"durable_rw_filter", TxConfig::durable_rw(AllocLogKind::kFilter)},
  };
}

struct Digest {
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis
  void fold(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 1099511628211ull;
    }
  }
};

struct RunOutcome {
  std::uint64_t digest = 0;
  std::uint64_t commits = 0;  // step-phase commits (digest folding excluded)
  std::uint64_t aborts = 0;
  std::uint64_t batch_ops = 0;      // sub-ops executed inside merged batches
  std::uint64_t compensated = 0;    // sub-ops rolled back per-op (user aborts)
};

/// The torture workload: maps, lists, vectors, queues, heaps, bitmaps,
/// hashtables, raw tx_malloc scratch, nested transactions, and
/// deterministic user aborts, all driven by one fixed-seed RNG.
///
/// @p batch selects the executor: 0 runs each step directly in its own
/// top-level transaction (the historical shape); N > 0 feeds the SAME
/// closures through txbatch::Batcher at merge factor N. All per-step
/// randomness is drawn at GENERATION time, in the exact order the direct
/// executor consumed it, so the request stream is bit-identical whatever
/// the merge factor — any digest divergence is a merge-layer bug.
RunOutcome run_workload(const TxConfig& cfg, int steps = kSteps,
                        std::size_t batch = 0) {
  set_global_config(cfg);
  stats_reset();

  TxMap<std::uint64_t, std::uint64_t> map;
  TxHashtable<std::uint64_t, std::uint64_t> table(64);
  TxList<std::uint64_t> list;
  TxVector<std::uint64_t> vec(2);  // tiny: forces many captured grow-copies
  TxQueue<std::uint64_t> queue;
  TxHeap<std::uint64_t> heap(2);
  TxBitmap bitmap(kKeyRange);
  tvar<std::uint64_t> counter{0};

  txbatch::BatcherOptions bopts;
  bopts.max_batch = batch == 0 ? 1 : batch;
  txbatch::Batcher batcher(bopts);

  Xoshiro256 rng(kSeed);
  for (int step = 0; step < steps; ++step) {
    const std::uint64_t key = rng.below(kKeyRange);
    const std::uint64_t val = rng.next();
    const std::uint64_t op = rng.below(12);
    // Op 8's coin is drawn HERE, at generation time, in exactly the slot
    // the direct executor used to draw it (execution was immediate). A
    // draw at execution time would make the stream depend on the merge
    // factor, because the Batcher defers closure bodies.
    const std::uint64_t heap_coin = op == 8 ? rng.below(3) : 1;
    auto body = [&, key, val, op, heap_coin, step](Tx& tx) {
      switch (op) {
        case 0:
          map.insert(tx, key, val);
          break;
        case 1:
          map.erase(tx, key);
          break;
        case 2:
          table.put(tx, key, val);
          break;
        case 3:
          if (list.size(tx) < 512) list.insert(tx, key);
          break;
        case 4:
          list.remove(tx, key);
          break;
        case 5:
          if (vec.size(tx) < 512) {
            vec.push_back(tx, val);
          } else {
            vec.set(tx, val % 512, val);
          }
          break;
        case 6:
          queue.push(tx, val);
          break;
        case 7: {
          std::uint64_t out = 0;
          if (queue.pop(tx, &out)) counter.add(tx, out & 0xff);
          break;
        }
        case 8: {
          if (heap.size(tx) < 512) heap.push(tx, val);
          std::uint64_t top = 0;
          if (heap_coin == 0 && heap.pop(tx, &top)) {
            counter.add(tx, top & 0xff);
          }
          break;
        }
        case 9:
          if (bitmap.set(tx, key)) counter.add(tx, 1);
          break;
        case 10: {
          // Allocation-heavy transaction with a nested child that sometimes
          // partially aborts: exercises captured-memory undo in nested
          // transactions plus alloc-log insert/erase under every log.
          const bool abort_child = (step % 5) == 0;
          auto* scratch = static_cast<std::uint64_t*>(tx_malloc(tx, 256));
          for (int j = 0; j < 32; ++j) {
            tm_write(tx, &scratch[j], val + static_cast<std::uint64_t>(j),
                     kAutoSite);
          }
          atomic([&](Tx& itx) {
            tm_write(itx, &scratch[0], std::uint64_t{0}, kAutoSite);
            counter.add(itx, 1000);
            if (abort_child) abort_tx();  // partial abort: both undone
          });
          std::uint64_t sum = 0;
          for (int j = 0; j < 32; ++j) {
            sum += tm_read(tx, &scratch[j], kAutoSite);
          }
          tx_free(tx, scratch);
          counter.add(tx, sum & 0xffff);
          break;
        }
        default: {
          // Deterministic user abort: everything THIS OP did must roll
          // back — via top-level cancel when direct, via the per-op
          // compensation path when merged.
          const bool cancel = (step % 3) == 0;
          counter.add(tx, 7);
          map.insert(tx, key ^ 0x80, val);
          if (cancel) abort_tx();
          break;
        }
      }
    };
    if (batch == 0) {
      atomic(body);
    } else {
      batcher.enqueue(std::move(body));
    }
  }
  batcher.drain();

  // Step-phase outcome counters, captured before digest folding adds its
  // own transactions (the batched comparison asserts EXACT commit counts).
  const TxStats step_stats = stats_snapshot();

  // Fold the complete final state.
  Digest d;
  map.for_each_sequential([&](std::uint64_t k, std::uint64_t v) {
    d.fold(k);
    d.fold(v);
  });
  atomic([&](Tx& tx) {
    for (std::uint64_t k = 0; k < kKeyRange; ++k) {
      std::uint64_t v = 0;
      if (table.find(tx, k, &v)) {
        d.fold(k);
        d.fold(v);
      }
    }
    typename TxList<std::uint64_t>::Iterator it;
    list.iter_reset(tx, &it);
    while (list.iter_has_next(tx, &it)) d.fold(list.iter_next(tx, &it));
    const std::size_t n = vec.size(tx);
    d.fold(n);
    for (std::size_t i = 0; i < n; ++i) d.fold(vec.at(tx, i));
    std::uint64_t v = 0;
    while (queue.pop(tx, &v)) d.fold(v);
    while (heap.pop(tx, &v)) d.fold(v);
  });
  for (std::uint64_t k = 0; k < kKeyRange; ++k) {
    atomic([&](Tx& tx) { d.fold(bitmap.test(tx, k) ? k : ~k); });
  }
  d.fold(bitmap.count_sequential());
  d.fold(counter.peek());

  set_global_config(TxConfig::baseline());
  return RunOutcome{d.hash, step_stats.commits, step_stats.aborts,
                    step_stats.batch_ops, step_stats.batch_op_compensations};
}

TEST(Differential, AllBarrierPresetsProduceIdenticalState) {
  const auto presets = all_presets();
  RunOutcome reference{};
  for (std::size_t i = 0; i < presets.size(); ++i) {
    const auto& [name, cfg] = presets[i];
    const RunOutcome out = run_workload(cfg);
    SCOPED_TRACE("preset: " + name);
    EXPECT_GT(out.commits, 0u);
    // Single-threaded: conflicts are impossible, so every preset must
    // commit the same transactions.
    EXPECT_EQ(out.aborts, 0u);
    if (i == 0) {
      reference = out;
      continue;
    }
    EXPECT_EQ(out.digest, reference.digest)
        << name << " diverged from " << presets[0].first;
    EXPECT_EQ(out.commits, reference.commits)
        << name << " commit count diverged from " << presets[0].first;
  }
}

// Batched variants: the SAME 12k-step stream pushed through
// txbatch::Batcher at merge factors 1/8/64 must produce a bit-identical
// digest and exactly predictable commit counts. Merging changes WHERE
// transaction boundaries fall (ceil(steps/B) outer commits instead of one
// per step) and HOW user aborts roll back (per-op compensation instead of
// top-level cancel) — neither may change a single byte of final state, and
// no op may be lost or double-run.
TEST(Differential, BatchedExecutionMatchesUnbatchedExactly) {
  const std::vector<std::pair<std::string, TxConfig>> cfgs = {
      {"full", TxConfig::baseline()},
      {"rw_tree", TxConfig::runtime_rw(AllocLogKind::kTree)},
      {"static", TxConfig::compiler()},
      // The config txbatch and durable-stream run: merged batches grow the
      // filter's marked footprint; the digest and exact commit counts must
      // not notice any of it.
      {"rw_filter", TxConfig::runtime_rw(AllocLogKind::kFilter)},
  };
  for (const auto& [name, cfg] : cfgs) {
    const RunOutcome ref = run_workload(cfg);
    // Direct mode skips cancelled transactions' commits, so the cancel
    // count falls out of the reference run itself.
    const std::uint64_t cancels = kSteps - ref.commits;
    ASSERT_GT(cancels, 0u);  // the compensation path must actually fire
    for (const std::size_t b : {std::size_t{1}, std::size_t{8}, std::size_t{64}}) {
      SCOPED_TRACE(name + " @ batch " + std::to_string(b));
      const RunOutcome out = run_workload(cfg, kSteps, b);
      EXPECT_EQ(out.digest, ref.digest);
      EXPECT_EQ(out.aborts, 0u);
      // Exact outer-commit count: every batch commits, cancelled sub-ops
      // included (their rollback is nested, not top-level).
      EXPECT_EQ(out.commits, (kSteps + b - 1) / b);
      EXPECT_EQ(out.batch_ops, static_cast<std::uint64_t>(kSteps));  // zero lost
      EXPECT_EQ(out.compensated, cancels);
    }
  }
}

// The comparison must be able to fail: the workload must be deterministic
// (two identical runs agree) AND the digest must be sensitive (a slightly
// different workload diverges), otherwise the equality above is vacuous.
// Durable region round-trip: a deterministic linked-structure workload in
// a DurableHeap must digest identically from the live working copy and
// from a fresh reopen — i.e. what the medium replays is byte-for-byte what
// the in-memory run computed, captured allocations included (their bytes
// travel by wholesale write-back, not redo entries).
TEST(Differential, DurableRegionStateSurvivesReopenBitIdentically) {
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string path = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                           "/cstm_diff_durable_" + std::to_string(::getpid()) +
                           ".heap";
  std::remove(path.c_str());

  // Walks the block list anchored at root slot 0 ([0]=value, [1]=next
  // offset) plus the plain-value slots. Reads are direct: after close/open
  // the working copy IS the recovered medium image.
  auto region_digest = [](dur::DurableHeap& heap) {
    Digest d;
    for (std::uint64_t off = *heap.root_slot(0); off != 0;) {
      const auto* block = static_cast<const std::uint64_t*>(heap.at(off));
      d.fold(block[0]);
      off = block[1];
    }
    d.fold(*heap.root_slot(2));
    d.fold(*heap.root_slot(3));
    return d.hash;
  };

  std::uint64_t live = 0;
  {
    dur::DurableHeap heap;
    ASSERT_TRUE(heap.open(path));
    heap.activate();
    set_global_config(TxConfig::durable_rw(AllocLogKind::kFilter));
    stats_reset();
    Xoshiro256 rng(kSeed);
    for (int i = 0; i < 64; ++i) {
      const std::uint64_t v = rng.next();
      atomic([&](Tx& tx) {
        auto* block = static_cast<std::uint64_t*>(heap.alloc(tx, 64));
        tm_write(tx, &block[0], v, kAutoSite);                      // captured
        tm_write(tx, &block[1], tm_read(tx, heap.root_slot(0)),
                 kAutoSite);
        tm_write(tx, heap.root_slot(0), heap.offset_of(block));     // logged
        tm_write(tx, heap.root_slot(2),
                 tm_read(tx, heap.root_slot(2)) + (v & 0xff));
        if (i % 7 == 0) {
          atomic([&](Tx& itx) {  // nested partial abort mid-structure
            tm_write(itx, heap.root_slot(3), std::uint64_t{0xDEAD});
            abort_tx();
          });
        }
      });
    }
    const TxStats s = stats_snapshot();
    EXPECT_GT(s.flushes_elided_percent(), 0.0);  // elision was live
    live = region_digest(heap);
    heap.deactivate();
    heap.close();
    set_global_config(TxConfig::baseline());
  }

  dur::DurableHeap reopened;
  ASSERT_TRUE(reopened.open(path));
  EXPECT_EQ(region_digest(reopened), live);
  reopened.close();
  std::remove(path.c_str());
}

TEST(Differential, WorkloadDeterministicAndDigestSensitive) {
  const RunOutcome a = run_workload(TxConfig::baseline());
  const RunOutcome b = run_workload(TxConfig::baseline());
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.commits, b.commits);
  const RunOutcome c = run_workload(TxConfig::baseline(), kSteps - 7);
  EXPECT_NE(c.digest, a.digest);
}

}  // namespace
}  // namespace cstm
