// Property tests for the commit-time hot spots:
//
//  * the global clock (stm/gclock.hpp) — concurrent stamps are unique and
//    per-thread monotonic, and load() never lags a returned stamp;
//  * the striped ownership-record table (stm/orec.hpp) — cache-line
//    alignment, same-line/adjacent-line mapping guarantees, hash
//    distribution, and stripe isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "stm/gclock.hpp"
#include "stm/orec.hpp"
#include "stm/stm.hpp"

namespace cstm {
namespace {

// ---------------------------------------------------------------------------
// Global clock
// ---------------------------------------------------------------------------

TEST(Clock, ConcurrentStampsAreUniqueAndMonotonic) {
  // A local clock, so the counts below are exact.
  GlobalClock clock;
  constexpr int kThreads = 8;
  constexpr int kStampsPerThread = 2000;
  std::vector<std::vector<std::uint64_t>> stamps(kThreads);
  std::atomic<bool> published{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kStampsPerThread; ++i) {
        const std::uint64_t ts = clock.stamp();
        stamps[t].push_back(ts);
        // Publish-before-release: a returned stamp is already visible.
        if (clock.load() < ts) published.store(false);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(published.load());

  std::vector<std::uint64_t> all;
  for (const auto& v : stamps) {
    for (std::size_t i = 1; i < v.size(); ++i) EXPECT_LT(v[i - 1], v[i]);
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end())
      << "duplicate commit timestamp: the anti-ABA uniqueness invariant";
  EXPECT_EQ(clock.load(), all.back());
}

// ---------------------------------------------------------------------------
// Striped orec table
// ---------------------------------------------------------------------------

// Alignment properties are compile-time facts; restate them here so the
// test suite fails loudly if the stripe layout regresses.
static_assert(sizeof(OrecTable::Stripe) == kCacheLineSize);
static_assert(alignof(OrecTable::Stripe) == kCacheLineSize);
static_assert(OrecTable::kStripes * OrecTable::kStripeSlots == OrecTable::kSize);
static_assert((OrecTable::kMix & 1) != 0,
              "mixing constant must be odd so the line hash is a bijection");

TEST(StripedOrecs, SameCacheLineMapsToSameRecord) {
  alignas(64) std::uint64_t line[8];
  for (int i = 1; i < 8; ++i) {
    EXPECT_EQ(OrecTable::index_of(&line[0]), OrecTable::index_of(&line[i]));
  }
}

TEST(StripedOrecs, AdjacentCacheLinesNeverCollideAndNeverShareAStripe) {
  // The index delta between lines L and L+1 is (kMix >> 44) or that plus
  // one (carry), both nonzero mod 2^20 and both >= kStripeSlots — so
  // neighbouring lines get distinct records in distinct stripes. Check the
  // claim empirically across a large contiguous region.
  static std::uint64_t region[1 << 15];
  const char* base = reinterpret_cast<const char*>(&region[0]);
  for (std::size_t off = 0; off + 64 < sizeof(region); off += 64) {
    ASSERT_NE(OrecTable::index_of(base + off), OrecTable::index_of(base + off + 64));
    ASSERT_NE(OrecTable::stripe_of(base + off), OrecTable::stripe_of(base + off + 64));
  }
}

TEST(StripedOrecs, DistinctStripesLiveOnDistinctCacheLines) {
  OrecTable& table = orec_table();
  static std::uint64_t region[1 << 12];
  const char* base = reinterpret_cast<const char*>(&region[0]);
  const auto line_of = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) / kCacheLineSize;
  };
  const void* prev = base;
  for (std::size_t off = 64; off + 64 < sizeof(region); off += 64) {
    const void* cur = base + off;
    if (OrecTable::stripe_of(cur) != OrecTable::stripe_of(prev)) {
      EXPECT_NE(line_of(&table.slot(cur)), line_of(&table.slot(prev)))
          << "two stripes share a cache line: striping buys nothing";
    }
    prev = cur;
  }
}

TEST(StripedOrecs, MixingHashSpreadsConsecutiveLines) {
  // The old linear hash sent N consecutive cache lines to N consecutive
  // records — a hot array concentrated its locks in a few stripe lines.
  // The multiplicative hash must spread them: over 2^16 consecutive lines,
  // indices are (nearly) all distinct and stripes are hit nearly evenly.
  constexpr std::size_t kLines = 1 << 16;
  std::vector<std::size_t> indices;
  indices.reserve(kLines);
  const std::uintptr_t base = 0x7f0000000000ull;  // arbitrary aligned base
  for (std::size_t i = 0; i < kLines; ++i) {
    indices.push_back(OrecTable::index_of(
        reinterpret_cast<const void*>(base + i * kCacheLineSize)));
  }
  std::sort(indices.begin(), indices.end());
  const std::size_t distinct =
      static_cast<std::size_t>(std::unique(indices.begin(), indices.end()) -
                               indices.begin());
  EXPECT_GE(distinct, kLines * 9 / 10);
  // Stripe histogram: no stripe soaks up more than a sliver of the lines.
  std::vector<std::uint32_t> stripe_load(OrecTable::kStripes, 0);
  std::uint32_t max_load = 0;
  for (std::size_t i = 0; i < kLines; ++i) {
    const std::size_t s = OrecTable::index_of(reinterpret_cast<const void*>(
                              base + i * kCacheLineSize)) /
                          OrecTable::kStripeSlots;
    max_load = std::max(max_load, ++stripe_load[s]);
  }
  // Perfectly even would be kLines / kStripes = 0.5; allow generous slack.
  EXPECT_LE(max_load, 8u);
}

// ---------------------------------------------------------------------------
// Merged batches against the production clock
// ---------------------------------------------------------------------------

TEST(ClockTx, MergedBatchPublishesOnce) {
  // The txbatch form of WritingTransactionsAdvanceClockOnce
  // (tests/test_stm_advanced.cpp): N writing sub-ops merged into one outer
  // transaction are ONE writing commit, so the clock advances by exactly 1
  // per drained batch — never once per sub-op. Nested commits don't touch
  // the clock; only commit_top stamps.
  set_global_config(TxConfig::baseline());
  std::uint64_t x = 0;
  constexpr int kRounds = 10;
  constexpr int kOpsPerBatch = 16;
  std::uint64_t prev = global_clock().load();
  for (int round = 0; round < kRounds; ++round) {
    txbatch::BatcherOptions opts;
    opts.max_batch = kOpsPerBatch;
    txbatch::Batcher batcher(opts);
    for (int i = 0; i < kOpsPerBatch; ++i) {
      batcher.enqueue([&x, i](Tx& tx) {
        tm_write(tx, &x, static_cast<std::uint64_t>(i));
      });
    }
    batcher.drain();
    const std::uint64_t now = global_clock().load();
    EXPECT_EQ(now, prev + 1) << "batch " << round;
    prev = now;
  }
  set_global_config(TxConfig::baseline());
}

}  // namespace
}  // namespace cstm
