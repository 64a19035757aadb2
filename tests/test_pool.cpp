// Transactional memory pool tests: size classes, freelist reuse,
// cross-thread (remote) frees, pool parking/recycling on thread exit, and
// quarantine-based reclamation quiescence.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "stm/stm.hpp"
#include "txmalloc/pool.hpp"

namespace cstm {
namespace {

TEST(Pool, AllocateReturnsUsableSize) {
  std::size_t usable = 0;
  void* p = Pool::local().allocate(20, &usable);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(usable, 20u);
  EXPECT_EQ(Pool::usable_size(p), usable);
  std::memset(p, 0xab, usable);  // whole block is writable
  Pool::deallocate(p);
}

TEST(Pool, SizeClassRounding) {
  std::size_t usable = 0;
  Pool::local().allocate(1, &usable);
  EXPECT_EQ(usable, 16u);
  Pool::local().allocate(17, &usable);
  EXPECT_EQ(usable, 32u);
  Pool::local().allocate(33, &usable);
  EXPECT_EQ(usable, 48u);
  Pool::local().allocate(4096, &usable);
  EXPECT_EQ(usable, 4096u);
}

TEST(Pool, LargeAllocationsBypassClasses) {
  std::size_t usable = 0;
  void* p = Pool::local().allocate(100000, &usable);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(usable, 100000u);
  std::memset(p, 1, usable);
  Pool::deallocate(p);
}

TEST(Pool, FreelistReusesBlocks) {
  void* p = Pool::local().allocate(64);
  Pool::deallocate(p);
  void* q = Pool::local().allocate(64);
  EXPECT_EQ(p, q);  // LIFO freelist returns the same block
  Pool::deallocate(q);
}

TEST(Pool, AlignmentIsSixteen) {
  for (const std::size_t n : {1u, 24u, 100u, 1000u}) {
    void* p = Pool::local().allocate(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u) << n;
    Pool::deallocate(p);
  }
}

TEST(Pool, CrossThreadFreeRoutesToOwner) {
  // Thread A allocates; thread B frees; thread A's next allocation can
  // reuse the block after the remote stack drains.
  void* p = Pool::local().allocate(128);
  std::thread([&] { Pool::deallocate(p); }).join();
  // Drain happens on allocation miss; allocate enough to hit the class.
  std::vector<void*> got;
  bool reused = false;
  for (int i = 0; i < 64 && !reused; ++i) {
    void* q = Pool::local().allocate(128);
    if (q == p) reused = true;
    got.push_back(q);
  }
  EXPECT_TRUE(reused);
  for (void* q : got) Pool::deallocate(q);
}

TEST(Pool, PoolsAreParkedAndRecycled) {
  const std::size_t count_before = Pool::pool_count();
  // Threads run sequentially: each can reuse the previous one's parked pool.
  for (int i = 0; i < 8; ++i) {
    std::thread([] { Pool::local().allocate(16); }).join();
  }
  const std::size_t count_after = Pool::pool_count();
  EXPECT_LE(count_after - count_before, 1u);
}

TEST(Pool, ManyThreadsManyBlocksNoOverlap) {
  // Blocks handed out concurrently must never overlap.
  constexpr int kThreads = 8;
  constexpr int kBlocks = 500;
  std::vector<std::vector<void*>> all(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kBlocks; ++i) {
        void* p = Pool::local().allocate(48);
        std::memset(p, t, 48);
        all[static_cast<std::size_t>(t)].push_back(p);
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<std::uintptr_t> seen;
  for (const auto& vec : all) {
    for (void* p : vec) {
      EXPECT_TRUE(seen.insert(reinterpret_cast<std::uintptr_t>(p)).second);
    }
  }
  // Contents still intact (no overlap scribbled them).
  for (int t = 0; t < kThreads; ++t) {
    for (void* p : all[static_cast<std::size_t>(t)]) {
      EXPECT_EQ(static_cast<unsigned char*>(p)[0], t);
      Pool::deallocate(p);
    }
  }
}

// -- Quarantine quiescence ----------------------------------------------------

TEST(Quarantine, CommitTimeFreeIsDeferredUntilQuiescence) {
  set_global_config(TxConfig::baseline());
  stats_reset();
  Tx& tx0 = current_tx();
  auto* p = static_cast<std::uint64_t*>(tx_malloc(tx0, 8));
  *p = 42;
  // Free inside a transaction: the block enters quarantine at commit.
  atomic([&](Tx& tx) { tx_free(tx, p); });
  // The block must not be on the freelist yet if another transaction was
  // active when it was freed; with no concurrent activity it becomes
  // eligible on the next begin. Either way, a fresh transaction cycles the
  // quarantine without crashing and the memory eventually recycles.
  for (int i = 0; i < 200; ++i) {
    atomic([&](Tx& tx) {
      void* q = tx_malloc(tx, 8);
      tx_free(tx, q);
    });
  }
  SUCCEED();
}

TEST(Quarantine, ConcurrentFreeAndAccessNeverCorrupts) {
  // Threads hammer an insert/erase pattern on a shared slot structure whose
  // records are freed transactionally; the quarantine keeps doomed writers
  // from scribbling on allocator metadata. Any corruption would crash or
  // fail verification in this loop.
  set_global_config(TxConfig::baseline());
  struct Rec {
    std::uint64_t value;
  };
  constexpr std::size_t kSlots = 32;
  std::atomic<Rec*> slots[kSlots] = {};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(900 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 5000; ++i) {
        const std::size_t s = rng.below(kSlots);
        atomic([&](Tx& tx) {
          Rec* cur = tm_read(tx, reinterpret_cast<Rec**>(&slots[s]));
          if (cur == nullptr) {
            auto* rec = static_cast<Rec*>(tx_malloc(tx, sizeof(Rec)));
            tm_write(tx, &rec->value, std::uint64_t{0xfeed0000} + s,
                     kAutoSite);
            tm_write(tx, reinterpret_cast<Rec**>(&slots[s]), rec);
          } else {
            EXPECT_EQ(tm_read(tx, &cur->value), std::uint64_t{0xfeed0000} + s);
            tm_write(tx, reinterpret_cast<Rec**>(&slots[s]),
                     static_cast<Rec*>(nullptr));
            tx_free(tx, cur);
          }
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  for (auto& slot : slots) {
    if (Rec* r = slot.load()) Pool::deallocate(r);
  }
}

}  // namespace
}  // namespace cstm
