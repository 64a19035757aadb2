// High-thread correctness torture tier (ctest label: stress).
//
// On a 1-core CI box the scalability work — the global clock, striped
// orecs, backoff contention management — cannot be gated on throughput, so
// it is gated on correctness under heavy oversubscription instead: 16 and
// 32 threads hammering shared containers, under release, ASan, and TSan.
//
// The workload is designed so its FINAL STATE is interleaving-independent
// and therefore identical across thread counts:
//
//  * operations are indexed 0..kTotalOps and operation i is a pure
//    function of i; thread t of T executes exactly the ops with
//    i % T == t, so the op SET never depends on scheduling;
//  * all cross-thread effects commute: value-carrying inserts are
//    idempotent (the value is a function of the key), counter updates are
//    additive, bitmap sets are idempotent, and the one coupled op
//    (first-to-set-the-bit bumps the counter) is scheduling-independent
//    because only one op ever wins each bit regardless of order.
//
// Conflicts are still plentiful — different threads collide on the same
// map nodes, hashtable buckets, counter orec, and container internals —
// so the backoff, the lazy-validation clock, and the striped table all get
// exercised; they just must not be OBSERVABLE. Two assertions per run:
// the digest matches every other run's, and zero commits are lost
// (commits == ops executed, and the counter balances to its closed-form
// expected sum, conservation-style).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "containers/containers.hpp"
#include "stm/stm.hpp"

namespace cstm {
namespace {

constexpr std::uint64_t kKeyRange = 192;
constexpr int kTotalOps = 48000;

std::uint64_t mix(std::uint64_t x) {
  // splitmix64 finalizer: deterministic op parameters from the op index.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t key_of(int i) { return mix(static_cast<std::uint64_t>(i)) % kKeyRange; }

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
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t counter = 0;
};

/// One operation of the deterministic torture mix. Every branch's effect
/// commutes with every other op's (see file comment).
void run_op(int i, TxMap<std::uint64_t, std::uint64_t>& map,
            TxHashtable<std::uint64_t, std::uint64_t>& table, TxBitmap& bitmap,
            tvar<std::uint64_t>& counter) {
  const std::uint64_t k = key_of(i);
  switch (i % 5) {
    case 0:
      atomic([&](Tx& tx) { map.insert(tx, k, mix(k)); });
      break;
    case 1:
      atomic([&](Tx& tx) { table.put(tx, k, mix(k + 1)); });
      break;
    case 2:
      atomic([&](Tx& tx) {
        counter.add(tx, mix(static_cast<std::uint64_t>(i)) & 0xff);
      });
      break;
    case 3:
      atomic([&](Tx& tx) {
        if (bitmap.set(tx, k)) counter.add(tx, 1);
      });
      break;
    default:
      atomic([&](Tx& tx) {
        map.insert(tx, k ^ 0x40, mix(k ^ 0x40));
        counter.add(tx, 3);
      });
      break;
  }
}

RunOutcome run_stress(unsigned threads) {
  set_global_config(TxConfig::baseline());
  stats_reset();

  TxMap<std::uint64_t, std::uint64_t> map;
  TxHashtable<std::uint64_t, std::uint64_t> table(64);
  TxBitmap bitmap(kKeyRange);
  tvar<std::uint64_t> counter{0};

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = static_cast<int>(t); i < kTotalOps;
           i += static_cast<int>(threads)) {
        run_op(i, map, table, bitmap, counter);
      }
    });
  }
  for (auto& th : pool) th.join();

  // Snapshot BEFORE the digest traversal so commits == kTotalOps exactly.
  const TxStats s = stats_snapshot();

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
  });
  d.fold(bitmap.count_sequential());
  d.fold(counter.peek());

  set_global_config(TxConfig::baseline());
  return RunOutcome{d.hash, s.commits, s.aborts, counter.peek()};
}

/// Closed-form expected counter value: replay the op mix sequentially on
/// cheap scalar state (no STM). This is what conservation means here —
/// whatever the interleaving, additive effects must balance exactly.
std::uint64_t expected_counter() {
  std::uint64_t sum = 0;
  bool bits[kKeyRange] = {};
  for (int i = 0; i < kTotalOps; ++i) {
    switch (i % 5) {
      case 2: sum += mix(static_cast<std::uint64_t>(i)) & 0xff; break;
      case 3: {
        const std::uint64_t k = key_of(i);
        if (!bits[k]) {
          bits[k] = true;
          sum += 1;
        }
        break;
      }
      default:
        if (i % 5 == 4) sum += 3;
        break;
    }
  }
  return sum;
}

TEST(Stress, HighThreadDifferentialAcrossThreadCounts) {
  const std::uint64_t want_counter = expected_counter();
  const unsigned cells[] = {16, 32};
  RunOutcome reference{};
  bool have_reference = false;
  for (const unsigned threads : cells) {
    SCOPED_TRACE("threads: " + std::to_string(threads));
    const RunOutcome out = run_stress(threads);
    // Zero lost commits: every op committed exactly once, aborts retried.
    EXPECT_EQ(out.commits, static_cast<std::uint64_t>(kTotalOps));
    // Conservation: additive effects balance to the closed form.
    EXPECT_EQ(out.counter, want_counter);
    if (!have_reference) {
      reference = out;
      have_reference = true;
      continue;
    }
    EXPECT_EQ(out.digest, reference.digest)
        << threads << " threads diverged from " << cells[0]
        << ": thread count changed committed state";
  }
}

}  // namespace
}  // namespace cstm
