// Property tests for the sharded commit-time hot spots:
//
//  * the epoch-batched global clock (stm/gclock.hpp) — monotonic
//    publication, no observable timestamp from an unpublished reservation,
//    global uniqueness of stamps, and safe fallback on range exhaustion
//    and on stale (overtaken) ranges;
//  * the striped ownership-record table (stm/orec.hpp) — cache-line
//    alignment, same-line/adjacent-line mapping guarantees, hash
//    distribution, and stripe isolation.
//
// The clock tests run against LOCAL GlobalClock instances with tiny batch
// sizes, so range boundaries and staleness — rare events on the production
// clock — happen constantly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "stm/gclock.hpp"
#include "stm/orec.hpp"
#include "stm/stm.hpp"

namespace cstm {
namespace {

// ---------------------------------------------------------------------------
// Epoch-batched clock
// ---------------------------------------------------------------------------

TEST(BatchedClock, SingleThreadStampsAreConsecutiveWithinARange) {
  GlobalClock clock(/*batch=*/8);
  ClockReservation r;
  std::uint64_t prev = 0;
  std::uint64_t reservations = 0;
  for (int i = 0; i < 100; ++i) {
    const GlobalClock::Stamp s = clock.stamp_and_publish(r);
    EXPECT_GT(s.ts, prev);
    // Sole committer: every stamp lands exactly one above the previous —
    // range boundaries are invisible because a fresh range starts right
    // where the synced previous range ended.
    if (prev != 0) {
      EXPECT_EQ(s.ts, prev + 1);
    }
    EXPECT_EQ(clock.load(), s.ts);  // published before return
    EXPECT_EQ(s.prev_published, prev);
    prev = s.ts;
    reservations += s.reservations;
    EXPECT_EQ(s.discards, 0u);  // nobody can overtake a sole committer
  }
  // 100 stamps at batch 8 must have re-reserved; the count is exact.
  EXPECT_EQ(reservations, (100 + 7) / 8u);
}

TEST(BatchedClock, ExhaustedRangeFallsBackToFreshReservation) {
  GlobalClock clock(/*batch=*/1);  // every stamp exhausts its range
  ClockReservation r;
  for (std::uint64_t i = 1; i <= 32; ++i) {
    const GlobalClock::Stamp s = clock.stamp_and_publish(r);
    EXPECT_EQ(s.ts, i);
    EXPECT_EQ(s.reservations, 1u);
  }
  EXPECT_EQ(clock.load(), 32u);
}

TEST(BatchedClock, StaleRangeIsDiscardedNeverStampedBelowEpoch) {
  GlobalClock clock(/*batch=*/4);
  ClockReservation a;
  ClockReservation b;
  // A stamps once from its range [1,5) ...
  const GlobalClock::Stamp first = clock.stamp_and_publish(a);
  EXPECT_EQ(first.ts, 1u);
  // ... then B (range [5,9) and onward) drives the epoch past A's range.
  std::uint64_t b_last = 0;
  for (int i = 0; i < 10; ++i) b_last = clock.stamp_and_publish(b).ts;
  ASSERT_GT(clock.load(), a.end);
  // A's leftover stamps [2,5) are now below the epoch. Stamping through A
  // must discard them — publishing any of them would violate monotonicity.
  const GlobalClock::Stamp s = clock.stamp_and_publish(a);
  EXPECT_GE(s.discards, 1u);
  EXPECT_GT(s.ts, b_last);
  EXPECT_EQ(clock.load(), s.ts);
}

TEST(BatchedClock, ConcurrentStampsAreUniqueAndPublicationIsMonotonic) {
  GlobalClock clock(/*batch=*/3);  // tiny: forces constant re-reservation
  constexpr int kThreads = 8;
  constexpr int kStampsPerThread = 2000;
  std::vector<std::vector<std::uint64_t>> stamps(kThreads);
  std::atomic<bool> monotonic{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ClockReservation r;
      std::uint64_t last_seen = 0;
      for (int i = 0; i < kStampsPerThread; ++i) {
        const GlobalClock::Stamp s = clock.stamp_and_publish(r);
        stamps[t].push_back(s.ts);
        // Publication-before-return, observed concurrently.
        if (clock.load() < s.ts) monotonic.store(false);
        // The epoch a single observer reads never goes backwards.
        const std::uint64_t now = clock.load();
        if (now < last_seen) monotonic.store(false);
        last_seen = now;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(monotonic.load());

  std::vector<std::uint64_t> all;
  for (auto& v : stamps) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end())
      << "duplicate commit timestamp: the anti-ABA uniqueness invariant";
  // Per-thread stamps strictly increase (each thread's commits serialize
  // in stamp order).
  for (const auto& v : stamps) {
    for (std::size_t i = 1; i < v.size(); ++i) EXPECT_LT(v[i - 1], v[i]);
  }
  // The final epoch is the maximum stamp ever published.
  EXPECT_EQ(clock.load(), all.back());
}

TEST(BatchedClock, NoObserverSeesAnUnpublishedReservation) {
  // Readers sample the epoch while writers stamp. Every sampled value must
  // be a timestamp some stamp_and_publish call actually returned (or the
  // initial 0) — a reserved-but-unpublished timestamp must never leak into
  // a reader's snapshot.
  GlobalClock clock(/*batch=*/5);
  constexpr int kWriters = 4;
  constexpr int kStampsPerWriter = 4000;
  std::vector<std::vector<std::uint64_t>> stamps(kWriters);
  std::vector<std::uint64_t> samples;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      samples.push_back(clock.load());
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      ClockReservation r;
      for (int i = 0; i < kStampsPerWriter; ++i) {
        stamps[t].push_back(clock.stamp_and_publish(r).ts);
      }
    });
  }
  for (auto& th : writers) th.join();
  done.store(true, std::memory_order_release);
  reader.join();

  std::set<std::uint64_t> published{0};
  for (auto& v : stamps) published.insert(v.begin(), v.end());
  for (std::uint64_t s : samples) {
    ASSERT_TRUE(published.count(s) != 0)
        << "observer saw " << s << ", which no transaction ever published";
  }
  // Reserved-but-never-stamped timestamps exist (discarded ranges), yet the
  // epoch stays at a published value below the reservation watermark.
  EXPECT_LE(clock.load(), clock.reserved_watermark());
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

TEST(BatchedClockTx, MergedBatchPublishesOnce) {
  // The txbatch form of WritingTransactionsAdvanceClockOnce
  // (tests/test_stm_advanced.cpp): N writing sub-ops merged into one outer
  // transaction are ONE writing commit, so the published epoch advances
  // once per drained batch — never once per sub-op. Nested commits don't
  // touch the clock; only commit_top stamps.
  set_global_config(TxConfig::baseline());
  std::uint64_t x = 0;
  // Warm the committer's reserved range so at most one range-boundary jump
  // can fall inside the measured run.
  atomic([&](Tx& tx) { tm_write(tx, &x, std::uint64_t{1}); });
  constexpr int kRounds = 10;
  constexpr int kOpsPerBatch = 16;
  std::uint64_t prev = global_clock().load();
  std::uint64_t single_steps = 0;
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
    EXPECT_GT(now, prev) << "batch " << round << " did not publish";
    // A 16-op batch stamping per sub-op would advance by 16; the merged
    // commit advances by exactly 1 inside a synced range.
    EXPECT_LE(now, prev + GlobalClock::kDefaultBatch);
    if (now == prev + 1) ++single_steps;
    prev = now;
  }
  EXPECT_GE(single_steps, static_cast<std::uint64_t>(kRounds) - 1);
  set_global_config(TxConfig::baseline());
}

}  // namespace
}  // namespace cstm
