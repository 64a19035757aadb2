// Unit and property tests for the three allocation-log data structures
// (paper Section 3.1.2): search tree, cache-line array, hash filter.
//
// The conservativeness contract is the key invariant: contains() may return
// false negatives but never false positives.
#include <gtest/gtest.h>

#include <thread>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "capture/alloc_log.hpp"
#include "capture/array_log.hpp"
#include "capture/filter_log.hpp"
#include "capture/private_registry.hpp"
#include "capture/tree_log.hpp"
#include "stm/stm.hpp"
#include "support/random.hpp"

namespace cstm {
namespace {

// The production logs are concrete, vtable-free types (the barrier fast
// path dispatches on the per-transaction plan instead). The tests keep a
// local polymorphic adapter so one parameterized suite can still drive all
// three implementations through a single pointer.
class LogUnderTest {
 public:
  virtual ~LogUnderTest() = default;
  virtual void insert(const void* addr, std::size_t size) = 0;
  virtual void erase(const void* addr, std::size_t size) = 0;
  virtual bool contains(const void* addr, std::size_t size) const = 0;
  virtual void clear() = 0;
  virtual std::size_t entries() const = 0;
  virtual const char* name() const = 0;
};

template <CaptureLog L>
class LogAdapter final : public LogUnderTest {
 public:
  void insert(const void* addr, std::size_t size) override {
    log_.insert(addr, size);
  }
  void erase(const void* addr, std::size_t size) override {
    log_.erase(addr, size);
  }
  bool contains(const void* addr, std::size_t size) const override {
    return log_.contains(addr, size);
  }
  void clear() override { log_.clear(); }
  std::size_t entries() const override { return log_.entries(); }
  const char* name() const override { return log_.name(); }

 private:
  L log_;
};

std::unique_ptr<LogUnderTest> make_log(AllocLogKind kind) {
  switch (kind) {
    case AllocLogKind::kTree: return std::make_unique<LogAdapter<TreeAllocLog>>();
    case AllocLogKind::kArray:
      return std::make_unique<LogAdapter<ArrayAllocLog>>();
    case AllocLogKind::kFilter:
      return std::make_unique<LogAdapter<FilterAllocLog>>();
  }
  return nullptr;
}

void* ptr(std::uintptr_t v) { return reinterpret_cast<void*>(v); }

// ---------------------------------------------------------------------------
// Behaviour shared by all three implementations.
// ---------------------------------------------------------------------------

class AllocLogAll : public ::testing::TestWithParam<AllocLogKind> {
 protected:
  std::unique_ptr<LogUnderTest> log_ = make_log(GetParam());
};

TEST_P(AllocLogAll, EmptyLogContainsNothing) {
  EXPECT_FALSE(log_->contains(ptr(0x1000), 8));
  EXPECT_EQ(log_->entries(), 0u);
}

TEST_P(AllocLogAll, InsertedBlockInteriorWordsNeverFalselyExcludeBase) {
  log_->insert(ptr(0x10000), 64);
  // Conservativeness: whatever contains() says must be safe. For the base
  // word of a freshly inserted block all three structures answer true.
  EXPECT_TRUE(log_->contains(ptr(0x10000), 8));
}

TEST_P(AllocLogAll, NeverContainsUnloggedMemory) {
  log_->insert(ptr(0x10000), 64);
  log_->insert(ptr(0x20000), 128);
  EXPECT_FALSE(log_->contains(ptr(0x30000), 8));
  EXPECT_FALSE(log_->contains(ptr(0xfff8), 8));   // just below block
  EXPECT_FALSE(log_->contains(ptr(0x10040), 8));  // just past block end
}

TEST_P(AllocLogAll, AccessStraddlingBlockEndIsNotContained) {
  log_->insert(ptr(0x10000), 64);
  EXPECT_FALSE(log_->contains(ptr(0x10038), 16));  // last 8 in, next 8 out
}

TEST_P(AllocLogAll, EraseRemovesBlock) {
  log_->insert(ptr(0x10000), 64);
  log_->erase(ptr(0x10000), 64);
  EXPECT_FALSE(log_->contains(ptr(0x10000), 8));
  EXPECT_EQ(log_->entries(), 0u);
}

TEST_P(AllocLogAll, ClearEmptiesLog) {
  log_->insert(ptr(0x10000), 64);
  log_->insert(ptr(0x20000), 64);
  log_->clear();
  EXPECT_FALSE(log_->contains(ptr(0x10000), 8));
  EXPECT_FALSE(log_->contains(ptr(0x20000), 8));
  EXPECT_EQ(log_->entries(), 0u);
}

TEST_P(AllocLogAll, ReusableAfterClear) {
  log_->insert(ptr(0x10000), 64);
  log_->clear();
  log_->insert(ptr(0x20000), 64);
  EXPECT_TRUE(log_->contains(ptr(0x20000), 8));
  EXPECT_FALSE(log_->contains(ptr(0x10000), 8));
}

TEST_P(AllocLogAll, ZeroSizeInsertIgnored) {
  log_->insert(ptr(0x10000), 0);
  EXPECT_FALSE(log_->contains(ptr(0x10000), 1));
}

// Property: against a reference set of disjoint blocks, no false positives,
// and (for the precise tree) no false negatives either.
TEST_P(AllocLogAll, RandomizedConservativenessProperty) {
  Xoshiro256 rng(42 + static_cast<int>(GetParam()));
  std::map<std::uintptr_t, std::size_t> reference;  // base -> size
  for (int round = 0; round < 2000; ++round) {
    const int op = static_cast<int>(rng.below(10));
    if (op < 5) {
      // Insert a fresh disjoint block: slots at 1 KiB boundaries.
      const std::uintptr_t base = 0x100000 + rng.below(512) * 1024;
      const std::size_t size = 8u << rng.below(7);  // 8..512
      if (!reference.contains(base)) {
        reference[base] = size;
        log_->insert(ptr(base), size);
      }
    } else if (op < 7 && !reference.empty()) {
      auto it = reference.begin();
      std::advance(it, static_cast<long>(rng.below(reference.size())));
      log_->erase(ptr(it->first), it->second);
      reference.erase(it);
    } else {
      // Query a random word-aligned address in the arena.
      const std::uintptr_t a = 0x100000 + rng.below(512 * 1024 / 8) * 8;
      const bool got = log_->contains(ptr(a), 8);
      auto it = reference.upper_bound(a);
      const bool truth = it != reference.begin() &&
                         (--it, a + 8 <= it->first + it->second);
      if (got) {
        EXPECT_TRUE(truth) << "false positive at " << std::hex << a << " in "
                           << log_->name();
      }
      if (GetParam() == AllocLogKind::kTree) {
        EXPECT_EQ(got, truth) << "tree must be precise";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, AllocLogAll,
                         ::testing::Values(AllocLogKind::kTree,
                                           AllocLogKind::kArray,
                                           AllocLogKind::kFilter),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// Differential check of the conservativeness contract: drive the same
// random insert/erase/clear stream through all three logs and use the tree
// (precise over disjoint allocator blocks) as ground truth. The bounded
// array and the colliding filter may answer false where the tree answers
// true (missed elision — harmless), but a true where the tree says false
// would be a false positive: the barrier would elide an access to shared
// memory, silently breaking isolation.
TEST(DifferentialConservativeness, ArrayAndFilterNeverExceedTree) {
  Xoshiro256 rng(20090811);
  TreeAllocLog tree;
  ArrayAllocLog array;
  FilterAllocLog filter(6);  // 64 slots: collisions guaranteed
  std::set<std::uintptr_t> bases;
  std::vector<std::pair<std::uintptr_t, std::size_t>> live;
  std::uint64_t queries = 0;
  for (int round = 0; round < 30000; ++round) {
    const int op = static_cast<int>(rng.below(100));
    if (op < 40) {
      // Insert a fresh disjoint block: 512-byte slots, sizes 8..256.
      const std::uintptr_t base = 0x200000 + rng.below(1024) * 512;
      const std::size_t size = std::size_t{8} << rng.below(6);
      if (bases.insert(base).second) {
        live.emplace_back(base, size);
        tree.insert(ptr(base), size);
        array.insert(ptr(base), size);
        filter.insert(ptr(base), size);
      }
    } else if (op < 55 && !live.empty()) {
      const std::size_t i = rng.below(live.size());
      const auto [base, size] = live[i];
      tree.erase(ptr(base), size);
      array.erase(ptr(base), size);
      filter.erase(ptr(base), size);
      bases.erase(base);
      live[i] = live.back();
      live.pop_back();
    } else if (op < 57) {
      tree.clear();
      array.clear();
      filter.clear();
      bases.clear();
      live.clear();
    } else {
      // Query a random address in the arena at varying widths, aligned and
      // not: anything the conservative logs claim, the tree must confirm.
      const std::uintptr_t a = 0x200000 + rng.below(1024 * 512);
      const std::size_t n = std::size_t{1} << rng.below(5);  // 1..16 bytes
      const bool truth = tree.contains(ptr(a), n);
      ++queries;
      if (array.contains(ptr(a), n)) {
        ASSERT_TRUE(truth) << "array false positive at " << std::hex << a
                           << " len " << n;
      }
      if (filter.contains(ptr(a), n)) {
        ASSERT_TRUE(truth) << "filter false positive at " << std::hex << a
                           << " len " << n;
      }
    }
  }
  EXPECT_GT(queries, 10000u);  // the op mix must actually exercise queries
}

// ---------------------------------------------------------------------------
// Tree-specific: precision and balance.
// ---------------------------------------------------------------------------

TEST(TreeLog, PreciseOverManyBlocks) {
  TreeAllocLog log;
  for (std::uintptr_t i = 0; i < 1000; ++i) {
    log.insert(ptr(0x100000 + i * 256), 128);
  }
  EXPECT_EQ(log.entries(), 1000u);
  for (std::uintptr_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(log.contains(ptr(0x100000 + i * 256 + 120), 8));
    EXPECT_FALSE(log.contains(ptr(0x100000 + i * 256 + 128), 8));
  }
}

TEST(TreeLog, StaysBalancedUnderAscendingInsert) {
  TreeAllocLog log;
  for (std::uintptr_t i = 0; i < 4096; ++i) {
    log.insert(ptr(0x100000 + i * 64), 32);
  }
  // AVL height bound: 1.44 * log2(n+2) ~ 17.3 for n=4096.
  EXPECT_LE(log.height(), 18);
}

TEST(TreeLog, StaysBalancedUnderDescendingInsert) {
  TreeAllocLog log;
  for (std::uintptr_t i = 4096; i-- > 0;) {
    log.insert(ptr(0x100000 + i * 64), 32);
  }
  EXPECT_LE(log.height(), 18);
}

TEST(TreeLog, EraseInterleavedKeepsPrecision) {
  TreeAllocLog log;
  for (std::uintptr_t i = 0; i < 256; ++i) log.insert(ptr(0x1000 + i * 64), 64);
  for (std::uintptr_t i = 0; i < 256; i += 2) log.erase(ptr(0x1000 + i * 64), 64);
  for (std::uintptr_t i = 0; i < 256; ++i) {
    EXPECT_EQ(log.contains(ptr(0x1000 + i * 64), 8), i % 2 == 1) << i;
  }
  EXPECT_EQ(log.entries(), 128u);
}

TEST(TreeLog, NodeRecyclingBoundsArena) {
  TreeAllocLog log;
  for (int round = 0; round < 100; ++round) {
    for (std::uintptr_t i = 0; i < 64; ++i) log.insert(ptr(0x1000 + i * 64), 64);
    for (std::uintptr_t i = 0; i < 64; ++i) log.erase(ptr(0x1000 + i * 64), 64);
  }
  EXPECT_EQ(log.entries(), 0u);
}

// The inline span check in front of the floor search may only skip the walk
// where the walk would answer false. Drive random insert, erase, same-base
// re-insert and clear sequences against a brute-force list of live blocks,
// probing the span's edges and the wide-but-stale span left behind when the
// lowest and highest blocks are erased.
TEST(TreeLog, SpanCheckMatchesBruteForce) {
  Xoshiro256 rng(20091108);
  TreeAllocLog log;
  std::map<std::uintptr_t, std::uintptr_t> live;  // base -> end
  // The span the log must keep: grown by insert, reset only by clear.
  std::uintptr_t lo = ~std::uintptr_t{0};
  std::uintptr_t hi = 0;
  std::uint64_t probes = 0;
  auto check = [&](std::uintptr_t a, std::size_t n) {
    bool truth = false;
    for (const auto& [base, end] : live) {
      truth = truth || (base <= a && a + n <= end);
    }
    ++probes;
    ASSERT_EQ(log.contains(ptr(a), n), truth)
        << std::hex << "addr " << a << " len " << n << " span [" << lo << ", "
        << hi << ")";
  };
  auto insert = [&](std::uintptr_t base, std::size_t size) {
    log.insert(ptr(base), size);
    // A same-base re-insert keeps the wider extent, as the log does.
    live[base] = std::max(live[base], base + size);
    lo = std::min(lo, base);
    hi = std::max(hi, base + size);
  };
  auto erase = [&](std::uintptr_t base) {
    log.erase(ptr(base), live[base] - base);
    live.erase(base);
  };
  for (int round = 0; round < 20000; ++round) {
    const int op = static_cast<int>(rng.below(100));
    if (op < 35) {
      // Blocks sit in 512-byte slots, so they stay disjoint; sizes 8..256.
      insert(0x300000 + rng.below(256) * 512, std::size_t{8} << rng.below(6));
    } else if (op < 40 && !live.empty()) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.below(live.size())));
      insert(it->first, std::size_t{8} << rng.below(6));
    } else if (op < 50 && !live.empty()) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.below(live.size())));
      erase(it->first);
    } else if (op < 52 && live.size() >= 2) {
      // Erase the extreme blocks: the span stays wide over now-dead memory,
      // and only the walk can answer there.
      const auto [low_base, low_end] = *live.begin();
      const auto [high_base, high_end] = *live.rbegin();
      erase(low_base);
      erase(high_base);
      check(low_base, 8);
      check(low_end - 8, 8);
      check(high_base, 8);
      check(high_end - 8, 8);
    } else if (op < 53) {
      log.clear();
      live.clear();
      lo = ~std::uintptr_t{0};
      hi = 0;
    } else if (lo < hi) {
      const std::size_t n = std::size_t{1} << rng.below(4);  // 1..8 bytes
      check(lo - 1, n);
      check(lo, n);
      check(hi - n, n);
      check(hi - n + 1, n);  // straddles hi unless n == 1
      check(lo + rng.below(hi - lo), n);
    } else {
      check(0x300000 + rng.below(256 * 512), 8);
    }
  }
  EXPECT_GT(probes, 40000u);  // the op mix must actually probe
}

// ---------------------------------------------------------------------------
// Array-specific: capacity and overflow behaviour.
// ---------------------------------------------------------------------------

TEST(ArrayLog, CapacityIsOneCacheLine) {
  EXPECT_EQ(ArrayAllocLog::kCapacity, 4u);
}

TEST(ArrayLog, OverflowDropsConservatively) {
  ArrayAllocLog log;
  for (std::uintptr_t i = 0; i < 6; ++i) log.insert(ptr(0x1000 + i * 0x100), 64);
  EXPECT_EQ(log.entries(), 4u);
  EXPECT_EQ(log.dropped(), 2u);
  // First four tracked, last two conservatively missing.
  EXPECT_TRUE(log.contains(ptr(0x1000), 8));
  EXPECT_TRUE(log.contains(ptr(0x1300), 8));
  EXPECT_FALSE(log.contains(ptr(0x1400), 8));
  EXPECT_FALSE(log.contains(ptr(0x1500), 8));
}

TEST(ArrayLog, EraseFreesSlotForReuse) {
  ArrayAllocLog log;
  for (std::uintptr_t i = 0; i < 4; ++i) log.insert(ptr(0x1000 + i * 0x100), 64);
  log.erase(ptr(0x1100), 64);
  log.insert(ptr(0x9000), 64);
  EXPECT_TRUE(log.contains(ptr(0x9000), 8));
  EXPECT_FALSE(log.contains(ptr(0x1100), 8));
  EXPECT_EQ(log.entries(), 4u);
}

// ---------------------------------------------------------------------------
// Filter-specific: word marking, epoch clear, collision behaviour.
// ---------------------------------------------------------------------------

TEST(FilterLog, MarksEveryWordOfBlock) {
  FilterAllocLog log;
  log.insert(ptr(0x10000), 64);
  for (std::uintptr_t off = 0; off < 64; off += 8) {
    EXPECT_TRUE(log.contains(ptr(0x10000 + off), 8)) << off;
  }
  EXPECT_FALSE(log.contains(ptr(0x10040), 8));
}

TEST(FilterLog, UnalignedAccessWithinBlockContained) {
  FilterAllocLog log;
  log.insert(ptr(0x10000), 64);
  EXPECT_TRUE(log.contains(ptr(0x10004), 4));
  EXPECT_TRUE(log.contains(ptr(0x10004), 8));  // straddles two marked words
}

TEST(FilterLog, ClearIsEpochBasedAndCheap) {
  FilterAllocLog log;
  log.insert(ptr(0x10000), 4096);
  log.clear();
  EXPECT_FALSE(log.contains(ptr(0x10000), 8));
  // A block from a new epoch at the same address works.
  log.insert(ptr(0x10000), 8);
  EXPECT_TRUE(log.contains(ptr(0x10000), 8));
}

TEST(FilterLog, CollisionsProduceOnlyFalseNegatives) {
  FilterAllocLog log(4);  // 16 slots: force collisions
  std::vector<std::uintptr_t> bases;
  for (std::uintptr_t i = 0; i < 64; ++i) {
    bases.push_back(0x10000 + i * 0x100);
    log.insert(ptr(bases.back()), 8);
  }
  // Nothing outside the inserted set may be contained.
  for (std::uintptr_t probe = 0x8000; probe < 0x9000; probe += 8) {
    EXPECT_FALSE(log.contains(ptr(probe), 8));
  }
}

TEST(FilterLog, LargeBlockInsertionCapIsConservative) {
  FilterAllocLog log;
  const std::size_t big = (FilterAllocLog::kMaxWordsPerBlock + 16) * 8;
  std::vector<std::uint64_t> arena(big / 8);
  log.insert(arena.data(), big);
  // Words beyond the cap are conservatively absent.
  EXPECT_FALSE(log.contains(&arena[FilterAllocLog::kMaxWordsPerBlock + 1], 8));
  // Collisions may evict any word (false negatives allowed); at least some
  // marked words must survive in a table as large as the block.
  std::size_t present = 0;
  for (std::size_t i = 0; i < FilterAllocLog::kMaxWordsPerBlock; ++i) {
    if (log.contains(&arena[i], 8)) ++present;
  }
  EXPECT_GT(present, FilterAllocLog::kMaxWordsPerBlock / 4);
  // Erase walks the same capped range and leaves nothing of the block.
  log.erase(arena.data(), big);
  EXPECT_EQ(log.entries(), 0u);
  for (std::size_t i = 0; i < arena.size(); ++i) {
    EXPECT_FALSE(log.contains(&arena[i], 8)) << "word " << i;
  }
}

// ---------------------------------------------------------------------------
// Filter entries() across the epoch-reset path (regression: entries() used
// to lie after clear()).
// ---------------------------------------------------------------------------

TEST(FilterLog, EraseOfStaleEpochBlockIsANoOp) {
  FilterAllocLog log;
  log.insert(ptr(0x10000), 64);
  log.clear();
  log.insert(ptr(0x20000), 64);
  // Erasing a block whose marks predate the clear must not disturb the
  // current epoch's counts. (Historically it decremented entries()
  // unconditionally, so entries() under-reported.)
  log.erase(ptr(0x10000), 64);
  EXPECT_EQ(log.entries(), 1u);
  EXPECT_TRUE(log.contains(ptr(0x20000), 8));
  log.erase(ptr(0x30000), 64);  // never inserted at all
  EXPECT_EQ(log.entries(), 1u);
}

// ---------------------------------------------------------------------------
// Array-log overflow accounting (reset_logs adds dropped() to
// TxStats::array_overflows once per transaction, then clears the log).
// ---------------------------------------------------------------------------

TEST(ArrayLog, ClearResetsDropped) {
  ArrayAllocLog log;
  for (std::size_t i = 0; i <= ArrayAllocLog::kCapacity; ++i) {
    log.insert(ptr(0x10000 + i * 0x100), 8);
  }
  EXPECT_EQ(log.dropped(), 1u);
  log.clear();
  EXPECT_EQ(log.entries(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
  log.insert(ptr(0x90000), 8);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(ArrayLog, OverflowCounterSurfacesInStats) {
  set_global_config(TxConfig::runtime_rw(AllocLogKind::kArray));
  atomic([](Tx&) {});  // begin_top picks the config up
  stats_reset();
  for (int t = 0; t < 10; ++t) {
    atomic([](Tx& tx) {
      void* blocks[12];
      for (std::size_t i = 0; i < 12; ++i) {
        blocks[i] = tx_malloc(tx, 64);
        tm_write(tx, static_cast<std::uint64_t*>(blocks[i]), std::uint64_t{i});
      }
      for (void* b : blocks) tx_free(tx, b);
    });
  }
  const TxStats s = stats_snapshot();
  set_global_config(TxConfig::baseline());
  // 12 allocs/tx against capacity 4: 8 drops per transaction.
  EXPECT_EQ(s.array_overflows, 10u * 8u);
  EXPECT_GT(s.tx_allocs, 0u);
  EXPECT_NEAR(s.capture_overflow_percent(), 100.0 * 80.0 / 120.0, 0.01);
}

// ---------------------------------------------------------------------------
// Switching the plan's log between transactions. begin_top clears no log:
// every exit clears the active one, and the begin that compiles a new plan
// constructs its log and caches the frame's views.
// ---------------------------------------------------------------------------

TEST(ActiveLog, SwitchBetweenTransactionsHitsCapturedAndMissesShared) {
  const AllocLogKind kinds[] = {AllocLogKind::kTree,  AllocLogKind::kFilter,
                                AllocLogKind::kArray, AllocLogKind::kTree,
                                AllocLogKind::kArray, AllocLogKind::kFilter,
                                AllocLogKind::kTree};
  static std::uint64_t shared_word = 0;
  const auto run = [&] {
    // Allocated and written by the previous transaction: shared once it
    // committed, so a log left uncleared by that transaction would hit it.
    std::uint64_t* published = nullptr;
    for (const AllocLogKind kind : kinds) {
      set_global_config(TxConfig::runtime_rw(kind));
      std::uint64_t fresh_read_hits = 0, fresh_write_hits = 0;
      std::uint64_t shared_hits = 0;
      std::uint64_t* fresh = nullptr;
      atomic([&](Tx& tx) {
        // Shared reads first: no allocation has touched the log yet, so
        // these probe it exactly as begin_top left it.
        const std::uint64_t r0 = tx.stats.read_elided_heap;
        tm_read(tx, &shared_word);
        if (published != nullptr) tm_read(tx, published);
        shared_hits = tx.stats.read_elided_heap - r0;
        const std::uint64_t r1 = tx.stats.read_elided_heap;
        const std::uint64_t w1 = tx.stats.write_elided_heap;
        fresh = static_cast<std::uint64_t*>(tx_malloc(tx, 64));
        tm_write(tx, fresh, std::uint64_t{7});
        EXPECT_EQ(tm_read(tx, fresh), 7u);
        fresh_read_hits = tx.stats.read_elided_heap - r1;
        fresh_write_hits = tx.stats.write_elided_heap - w1;
      });
      EXPECT_EQ(fresh_read_hits, 1u) << to_string(kind);
      EXPECT_EQ(fresh_write_hits, 1u) << to_string(kind);
      EXPECT_EQ(shared_hits, 0u) << to_string(kind);
      Pool::deallocate(published);
      published = fresh;
    }
    Pool::deallocate(published);
  };
  run();
  std::thread(run).join();  // a fresh descriptor: no log constructed yet
  set_global_config(TxConfig::baseline());
}

// ---------------------------------------------------------------------------
// Private-region registry (annotation APIs, Section 3.1.3).
// ---------------------------------------------------------------------------

TEST(PrivateRegistry, AddRemoveLifecycle) {
  PrivateRegistry reg;
  std::uint64_t data[8];
  reg.add(data, sizeof(data));
  EXPECT_TRUE(reg.contains(&data[3], 8));
  reg.remove(data, sizeof(data));
  EXPECT_FALSE(reg.contains(&data[3], 8));
}

TEST(PrivateRegistry, PersistsAcrossManyQueries) {
  PrivateRegistry reg;
  std::vector<std::uint64_t> a(100), b(100);
  reg.add(a.data(), 100 * 8);
  EXPECT_TRUE(reg.contains(&a[99], 8));
  EXPECT_FALSE(reg.contains(&b[0], 8));
}

TEST(PrivateRegistry, EmptyRegistryMissesEverywhere) {
  std::uint64_t local[4] = {};
  const std::vector<std::uint64_t> heap(4);
  const std::uintptr_t probes[] = {
      0,
      8,
      reinterpret_cast<std::uintptr_t>(&local[0]),
      reinterpret_cast<std::uintptr_t>(&local[3]),
      reinterpret_cast<std::uintptr_t>(heap.data()),
      ~std::uintptr_t{0} - 8,
  };
  PrivateRegistry reg;
  for (const std::uintptr_t a : probes) {
    EXPECT_FALSE(reg.contains(ptr(a), 8)) << std::hex << a << " (fresh)";
  }
  reg.add(local, sizeof(local));
  ASSERT_TRUE(reg.contains(&local[3], 8));
  reg.remove(local, sizeof(local));
  EXPECT_EQ(reg.entries(), 0u);
  for (const std::uintptr_t a : probes) {
    EXPECT_FALSE(reg.contains(ptr(a), 8)) << std::hex << a << " (emptied)";
  }
}

TEST(PrivateRegistry, ThreadRegistryIsPerThread) {
  std::uint64_t datum = 0;
  add_private_memory_block(&datum, sizeof(datum));
  EXPECT_TRUE(thread_private_registry().contains(&datum, 8));
  bool other_thread_sees = true;
  std::thread([&] {
    other_thread_sees = thread_private_registry().contains(&datum, 8);
  }).join();
  EXPECT_FALSE(other_thread_sees);
  remove_private_memory_block(&datum, sizeof(datum));
  EXPECT_FALSE(thread_private_registry().contains(&datum, 8));
}

}  // namespace
}  // namespace cstm
