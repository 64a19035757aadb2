// Basic single-thread STM semantics: commit, abort/rollback, read-own,
// write-after-write, allocator integration, capture elision fast paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "stm/stm.hpp"

namespace cstm {
namespace {

class StmBasic : public ::testing::Test {
 protected:
  void SetUp() override {
    set_global_config(TxConfig::baseline());
    stats_reset();
  }
};

// Every valid config compiles to a specialized barrier path — checked at
// compile time, since BarrierPlan::compile is constexpr. The expectations
// are written out as tables, independent of compile()'s enum arithmetic.
namespace plan_checks {
using AL = AllocLogKind;
using BP = BarrierPath;

struct Expect {
  TxConfig cfg;
  BarrierPath read, write;
  ActiveLog log;
};

constexpr bool compiles_to(const Expect& e) {
  const BarrierPlan p = BarrierPlan::compile(e.cfg);
  return e.cfg.valid() && p.read == e.read && p.write == e.write &&
         p.log == e.log;
}

// The paper's presets land on the path their name promises.
constexpr Expect kPresets[] = {
    {TxConfig::baseline(), BP::kFull, BP::kFull, ActiveLog::kNone},
    {TxConfig::runtime_rw(AL::kArray), BP::kStackHeapPrivArray,
     BP::kStackHeapPrivArray, ActiveLog::kArray},
    {TxConfig::runtime_w(AL::kFilter), BP::kFull, BP::kStackHeapPrivFilter,
     ActiveLog::kFilter},
    {TxConfig::runtime_heap_w(AL::kTree), BP::kFull, BP::kHeapTree,
     ActiveLog::kTree},
    {TxConfig::compiler(), BP::kStatic, BP::kStatic, ActiveLog::kNone},
    {TxConfig::counting(), BP::kCounting, BP::kCounting, ActiveLog::kTree},
};
static_assert(std::ranges::all_of(kPresets, compiles_to));

// Indexed by AllocLogKind.
constexpr AL kLogs[] = {AL::kTree, AL::kArray, AL::kFilter};
constexpr BP kStackHeapPriv[] = {BP::kStackHeapPrivTree,
                                 BP::kStackHeapPrivArray,
                                 BP::kStackHeapPrivFilter};
constexpr BP kHeapOnly[] = {BP::kHeapTree, BP::kHeapArray, BP::kHeapFilter};
constexpr ActiveLog kActive[] = {ActiveLog::kTree, ActiveLog::kArray,
                                 ActiveLog::kFilter};

/// Every valid {heap_read, heap_write, stack_private} × log config, plus
/// static and counting under every log; returns how many were checked, or
/// -1 at the first config that compiles to the wrong plan.
constexpr int check_all_valid_configs() {
  int checked = 0;
  for (int i = 0; i < 3; ++i) {
    for (int bits = 0; bits < 8; ++bits) {
      TxConfig c;
      c.heap_read = (bits & 1) != 0;
      c.heap_write = (bits & 2) != 0;
      c.stack_private = (bits & 4) != 0;
      c.alloc_log = kLogs[i];
      if (!c.valid()) continue;  // stack_private without a heap check
      const BP path = c.stack_private ? kStackHeapPriv[i] : kHeapOnly[i];
      const bool any = c.heap_read || c.heap_write;
      if (!compiles_to({c, c.heap_read ? path : BP::kFull,
                        c.heap_write ? path : BP::kFull,
                        any ? kActive[i] : ActiveLog::kNone})) {
        return -1;
      }
      ++checked;
    }
    TxConfig st = TxConfig::compiler();
    st.alloc_log = kLogs[i];
    TxConfig count = TxConfig::counting();
    count.alloc_log = kLogs[i];
    if (!compiles_to({st, BP::kStatic, BP::kStatic, ActiveLog::kNone}) ||
        !compiles_to({count, BP::kCounting, BP::kCounting, ActiveLog::kTree})) {
      return -1;
    }
    checked += 2;
  }
  return checked;
}
static_assert(check_all_valid_configs() == 3 * (7 + 2));
}  // namespace plan_checks

TEST_F(StmBasic, MixedConfigsAreRejected) {
  const TxConfig stack_only{.stack_private = true};
  TxConfig static_runtime = TxConfig::runtime_w(AllocLogKind::kArray);
  static_runtime.static_elision = true;
  TxConfig counting_runtime = TxConfig::runtime_heap_w();
  counting_runtime.count_mode = true;
  TxConfig counting_static = TxConfig::compiler();
  counting_static.count_mode = true;

  set_global_config(TxConfig::runtime_heap_w());
  EXPECT_THROW(set_global_config(stack_only), std::invalid_argument);
  EXPECT_THROW(set_global_config(static_runtime), std::invalid_argument);
  EXPECT_THROW(set_global_config(counting_runtime), std::invalid_argument);
  EXPECT_THROW(set_global_config(counting_static), std::invalid_argument);
  // A rejected config leaves the installed one in place.
  atomic([&](Tx& tx) { EXPECT_EQ(tx.plan.write, BarrierPath::kHeapTree); });
}

TEST_F(StmBasic, PlanFollowsConfigChanges) {
  // The plan is compiled at begin_top from the installed config; switching
  // configs between transactions must re-specialize the descriptor.
  set_global_config(TxConfig::runtime_rw(AllocLogKind::kArray));
  atomic([&](Tx& tx) {
    EXPECT_EQ(tx.plan.read, BarrierPath::kStackHeapPrivArray);
    EXPECT_EQ(tx.plan.log, ActiveLog::kArray);
  });
  set_global_config(TxConfig::baseline());
  atomic([&](Tx& tx) {
    EXPECT_EQ(tx.plan.read, BarrierPath::kFull);
    EXPECT_EQ(tx.plan.log, ActiveLog::kNone);
  });
}

TEST_F(StmBasic, CommitMakesWritesVisible) {
  std::uint64_t x = 1;
  atomic([&](Tx& tx) { tm_write(tx, &x, std::uint64_t{42}); });
  EXPECT_EQ(x, 42u);
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.commits, 1u);
  EXPECT_EQ(s.aborts, 0u);
}

TEST_F(StmBasic, ReadReturnsCurrentValue) {
  std::uint64_t x = 7;
  std::uint64_t got = 0;
  atomic([&](Tx& tx) { got = tm_read(tx, &x); });
  EXPECT_EQ(got, 7u);
}

TEST_F(StmBasic, ReadOwnWriteSeesNewValue) {
  std::uint64_t x = 1;
  std::uint64_t got = 0;
  atomic([&](Tx& tx) {
    tm_write(tx, &x, std::uint64_t{99});
    got = tm_read(tx, &x);
  });
  EXPECT_EQ(got, 99u);
}

TEST_F(StmBasic, UserAbortRollsBack) {
  std::uint64_t x = 5;
  atomic([&](Tx& tx) {
    tm_write(tx, &x, std::uint64_t{1234});
    abort_tx();
  });
  EXPECT_EQ(x, 5u);
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.commits, 0u);
}

TEST_F(StmBasic, UserAbortRestoresMultipleWrites) {
  std::uint64_t a = 1, b = 2, c = 3;
  atomic([&](Tx& tx) {
    tm_write(tx, &a, std::uint64_t{10});
    tm_write(tx, &b, std::uint64_t{20});
    tm_write(tx, &c, std::uint64_t{30});
    abort_tx();
  });
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(c, 3u);
}

TEST_F(StmBasic, ExceptionCancelsAndPropagates) {
  std::uint64_t x = 5;
  EXPECT_THROW(atomic([&](Tx& tx) {
                 tm_write(tx, &x, std::uint64_t{77});
                 throw std::runtime_error("boom");
               }),
               std::runtime_error);
  EXPECT_EQ(x, 5u);
}

TEST_F(StmBasic, SubWordWritesRollBackExactly) {
  struct {
    std::uint8_t a = 1;
    std::uint8_t b = 2;
    std::uint16_t c = 3;
    std::uint32_t d = 4;
  } s;
  atomic([&](Tx& tx) {
    tm_write(tx, &s.a, std::uint8_t{9});
    tm_write(tx, &s.c, std::uint16_t{999});
    abort_tx();
  });
  EXPECT_EQ(s.a, 1);
  EXPECT_EQ(s.b, 2);
  EXPECT_EQ(s.c, 3);
  EXPECT_EQ(s.d, 4u);
}

TEST_F(StmBasic, WriteAfterWriteUsesOwnFastPath) {
  std::uint64_t x = 0;
  atomic([&](Tx& tx) {
    tm_write(tx, &x, std::uint64_t{1});
    tm_write(tx, &x, std::uint64_t{2});
    tm_write(tx, &x, std::uint64_t{3});
  });
  EXPECT_EQ(x, 3u);
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.write_own_fast, 2u);
}

TEST_F(StmBasic, OutsideTransactionAccessesArePlain) {
  std::uint64_t x = 11;
  Tx& tx = current_tx();
  EXPECT_EQ(tm_read(tx, &x), 11u);
  tm_write(tx, &x, std::uint64_t{12});
  EXPECT_EQ(x, 12u);
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.reads, 0u);  // not counted as barriers
  EXPECT_EQ(s.writes, 0u);
}

// -- Allocator integration ---------------------------------------------------

TEST_F(StmBasic, TxMallocSurvivesCommit) {
  std::uint64_t* p = nullptr;
  atomic([&](Tx& tx) {
    p = static_cast<std::uint64_t*>(tx_malloc(tx, 8));
    tm_write(tx, p, std::uint64_t{5});
  });
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*p, 5u);
  Tx& tx = current_tx();
  tx_free(tx, p);
}

TEST_F(StmBasic, TxMallocRolledBackOnUserAbort) {
  void* aborted = nullptr;
  atomic([&](Tx& tx) {
    aborted = tx_malloc(tx, 64);
    abort_tx();
  });
  ASSERT_NE(aborted, nullptr);
  // The block was returned to the pool: a fresh allocation reuses it.
  void* q = Pool::local().allocate(64);
  EXPECT_EQ(q, aborted);
  Pool::deallocate(q);
}

TEST_F(StmBasic, FreeInTxDeferredUntilCommit) {
  Tx& tx0 = current_tx();
  auto* p = static_cast<std::uint64_t*>(tx_malloc(tx0, 8));
  *p = 123;
  atomic([&](Tx& tx) {
    tx_free(tx, p);
    abort_tx();  // free must not have happened
  });
  EXPECT_EQ(*p, 123u);  // still alive
  atomic([&](Tx& tx) { tx_free(tx, p); });  // now freed at commit
}

TEST_F(StmBasic, AllocThenFreeInSameTx) {
  atomic([&](Tx& tx) {
    void* p = tx_malloc(tx, 32);
    tx_free(tx, p);
  });
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.tx_allocs, 1u);
  EXPECT_EQ(s.tx_frees, 1u);
}

// -- Capture elision fast paths ----------------------------------------------

TEST_F(StmBasic, HeapWritesToTxLocalMemoryAreElided) {
  set_global_config(TxConfig::runtime_w());
  std::uint64_t* out = nullptr;
  atomic([&](Tx& tx) {
    auto* p = static_cast<std::uint64_t*>(tx_malloc(tx, 64));
    for (int i = 0; i < 8; ++i) tm_write(tx, &p[i], std::uint64_t(i), kAutoSite);
    out = p;
  });
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.write_elided_heap, 8u);
  EXPECT_EQ(out[7], 7u);
  tx_free(current_tx(), out);
}

TEST_F(StmBasic, StackAccessesAreElided) {
  set_global_config(TxConfig::runtime_rw());
  std::uint64_t result = 0;
  atomic([&](Tx& tx) {
    std::uint64_t local[4] = {0, 0, 0, 0};  // lives below start_sp
    for (int i = 0; i < 4; ++i) {
      tm_write(tx, &local[i], std::uint64_t(i + 1), kAutoSite);
    }
    std::uint64_t sum = 0;
    for (int i = 0; i < 4; ++i) sum += tm_read(tx, &local[i], kAutoSite);
    result = sum;
  });
  EXPECT_EQ(result, 10u);
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.write_elided_stack, 4u);
  EXPECT_EQ(s.read_elided_stack, 4u);
}

TEST_F(StmBasic, PreTxVariablesAreNotStackCaptured) {
  set_global_config(TxConfig::runtime_rw());
  std::uint64_t outer = 5;  // declared before atomic(): above start_sp
  atomic([&](Tx& tx) { tm_write(tx, &outer, std::uint64_t{6}, kAutoSite); });
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.write_elided_stack, 0u);
  EXPECT_EQ(outer, 6u);
}

TEST_F(StmBasic, PrivateAnnotationElidesBarriers) {
  set_global_config(TxConfig::runtime_rw());
  static std::uint64_t table[16] = {};
  add_private_memory_block(table, sizeof(table));
  atomic([&](Tx& tx) {
    tm_write(tx, &table[3], std::uint64_t{7}, kAutoSite);
    (void)tm_read(tx, &table[3], kAutoSite);
  });
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.write_elided_private, 1u);
  EXPECT_EQ(s.read_elided_private, 1u);
  remove_private_memory_block(table, sizeof(table));
  stats_reset();
  atomic([&](Tx& tx) { tm_write(tx, &table[3], std::uint64_t{8}, kAutoSite); });
  EXPECT_EQ(stats_snapshot().write_elided_private, 0u);
}

TEST_F(StmBasic, StaticElisionHonorsSiteFlag) {
  set_global_config(TxConfig::compiler());
  std::uint64_t heap_like = 0;
  atomic([&](Tx& tx) {
    tm_write(tx, &heap_like, std::uint64_t{1}, kAutoCapturedSite);
    (void)tm_read(tx, &heap_like, kAutoCapturedSite);
    tm_write(tx, &heap_like, std::uint64_t{2}, kSharedSite);  // full barrier
  });
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.write_elided_static, 1u);
  EXPECT_EQ(s.read_elided_static, 1u);
  EXPECT_EQ(heap_like, 2u);
}

TEST_F(StmBasic, BaselineElidesNothing) {
  set_global_config(TxConfig::baseline());
  atomic([&](Tx& tx) {
    auto* p = static_cast<std::uint64_t*>(tx_malloc(tx, 8));
    tm_write(tx, p, std::uint64_t{1}, kAutoCapturedSite);
    tx_free(tx, p);
  });
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.read_elided() + s.write_elided(), 0u);
}

// -- Count mode (Fig. 8 classification) ---------------------------------------

TEST_F(StmBasic, CountModeClassifiesAccesses) {
  set_global_config(TxConfig::counting());
  std::uint64_t shared = 0;
  atomic([&](Tx& tx) {
    std::uint64_t local = 0;
    auto* heap = static_cast<std::uint64_t*>(tx_malloc(tx, 8));
    tm_write(tx, heap, std::uint64_t{1}, kAutoSite);      // captured heap
    tm_write(tx, &local, std::uint64_t{2}, kAutoSite);    // captured stack
    tm_write(tx, &shared, std::uint64_t{3}, kSharedSite); // required
    (void)tm_read(tx, &shared, kAutoSite);                // not required, other
    tx_free(tx, heap);
  });
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.write_cap_heap, 1u);
  EXPECT_EQ(s.write_cap_stack, 1u);
  EXPECT_EQ(s.write_required, 1u);
  EXPECT_EQ(s.read_not_required, 1u);
}

// -- Visibility across threads -------------------------------------------------

TEST_F(StmBasic, CommittedValueVisibleToOtherThread) {
  std::uint64_t x = 0;
  atomic([&](Tx& tx) { tm_write(tx, &x, std::uint64_t{21}); });
  std::uint64_t seen = 0;
  std::thread([&] {
    atomic([&](Tx& tx) { seen = tm_read(tx, &x); });
  }).join();
  EXPECT_EQ(seen, 21u);
}

// -- Counter name table ----------------------------------------------------------

TEST(TxStatsNames, OneUniqueNamePerCounter) {
  constexpr std::size_t n = std::size(TxStats::kCounterNames);
  static_assert(n == TxStats::kCounters);
  std::set<std::string> unique(std::begin(TxStats::kCounterNames),
                               std::end(TxStats::kCounterNames));
  EXPECT_EQ(unique.size(), n);
}

TEST(TxStatsNames, ForEachCounterReadsTheNamedField) {
  TxStats s;
  s.commits = 7;
  s.array_overflows = 3;
  std::vector<std::string> names;
  std::uint64_t commits_seen = 0;
  std::uint64_t overflows_seen = 0;
  s.for_each_counter([&](const char* name, std::uint64_t value) {
    names.emplace_back(name);
    if (names.back() == "commits") commits_seen = value;
    if (names.back() == "array_overflows") overflows_seen = value;
  });
  EXPECT_EQ(commits_seen, 7u);
  EXPECT_EQ(overflows_seen, 3u);
  EXPECT_EQ(names, std::vector<std::string>(std::begin(TxStats::kCounterNames),
                                            std::end(TxStats::kCounterNames)));
}

}  // namespace
}  // namespace cstm
