// The typed transactional-object API (stm/tvar.hpp): tvar/tfield get/set
// round-trips, the bound-reference proxy, statically bound Site elision,
// nested partial-abort restore of tvar writes, tvar_array/tspan capture
// classification, and the Site-consistent tm_add backend (including its
// outside-transaction path).
#include <gtest/gtest.h>

#include <cstdint>

#include "stm/stm.hpp"

namespace cstm {
namespace {

namespace test_sites {
inline constexpr Site kShared{"tvar.test.shared", true};
inline constexpr Site kCaptured{"tvar.test.captured", false,
                                Verdict::kCaptured};
inline constexpr Site kAuto{"tvar.test.auto", false};
}  // namespace test_sites

class TvarTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_global_config(TxConfig::baseline());
    stats_reset();
  }
  void TearDown() override { set_global_config(TxConfig::baseline()); }
};

// -- get/set round-trips -----------------------------------------------------

TEST_F(TvarTest, GetSetRoundTrip) {
  tvar<std::uint64_t> v{7};
  std::uint64_t before = 0;
  atomic([&](Tx& tx) {
    before = v.get(tx);
    v.set(tx, 42);
    EXPECT_EQ(v.get(tx), 42u);  // read-own
  });
  EXPECT_EQ(before, 7u);
  EXPECT_EQ(v.peek(), 42u);
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.reads, 2u);
  EXPECT_EQ(s.writes, 1u);
}

TEST_F(TvarTest, AddIsFetchAdd) {
  tvar<std::uint64_t, test_sites::kShared> v{10};
  std::uint64_t old = 0;
  atomic([&](Tx& tx) { old = v.add(tx, 5); });
  EXPECT_EQ(old, 10u);
  EXPECT_EQ(v.peek(), 15u);
}

TEST_F(TvarTest, ProxyReadsWritesAndAccumulates) {
  tvar<std::uint64_t> v{1};
  std::uint64_t seen = 0;
  atomic([&](Tx& tx) {
    v(tx) = 5;
    seen = v(tx);
    v(tx) += 3;
  });
  EXPECT_EQ(seen, 5u);
  EXPECT_EQ(v.peek(), 8u);
}

TEST_F(TvarTest, ProxyToProxyAssignmentCopiesTheValue) {
  // `dst(tx) = src(tx)` must perform a transactional read + write, not
  // rebind the temporary proxy via the implicit copy assignment.
  tvar<std::uint64_t> src{21};
  tvar<std::uint64_t> dst{0};
  atomic([&](Tx& tx) { dst(tx) = src(tx); });
  EXPECT_EQ(dst.peek(), 21u);
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.reads, 1u);
  EXPECT_EQ(s.writes, 1u);
}

TEST_F(TvarTest, RollbackRestoresTvar) {
  tvar<std::uint64_t> v{5};
  atomic([&](Tx& tx) {
    v.set(tx, 1234);
    abort_tx();
  });
  EXPECT_EQ(v.peek(), 5u);
  EXPECT_EQ(stats_snapshot().commits, 0u);
}

// -- Outside-transaction behavior (plain accesses, no barrier counts) --------

TEST_F(TvarTest, OutsideTxAccessesArePlain) {
  tvar<std::uint64_t> v{11};
  Tx& tx = current_tx();
  EXPECT_EQ(v.get(tx), 11u);
  v.set(tx, 12);
  EXPECT_EQ(v.peek(), 12u);
  EXPECT_EQ(v.add(tx, 3), 12u);  // fetch-add outside a transaction
  EXPECT_EQ(v.peek(), 15u);
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.reads, 0u);  // not counted as barriers
  EXPECT_EQ(s.writes, 0u);
}

TEST_F(TvarTest, TmAddOutsideTxIsPlainAndReturnsOld) {
  // The raw backend of tvar::add: outside a transaction tm_add (like
  // tm_read/tm_write) degenerates to plain accesses and counts nothing.
  std::uint64_t x = 40;
  Tx& tx = current_tx();
  EXPECT_EQ(tm_read(tx, &x), 40u);
  EXPECT_EQ(tm_add(tx, &x, std::uint64_t{2}), 40u);
  EXPECT_EQ(x, 42u);
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.reads, 0u);
  EXPECT_EQ(s.writes, 0u);
}

TEST_F(TvarTest, TmAddClassifiesBothLegsWithOneSite) {
  // Site consistency: in counting mode the read leg and the write leg of a
  // tm_add through a manual Site must classify as required on both sides.
  set_global_config(TxConfig::counting());
  tvar<std::uint64_t, test_sites::kShared> v{0};
  atomic([&](Tx& tx) { v.add(tx, 1); });
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.read_required, 1u);
  EXPECT_EQ(s.write_required, 1u);
}

// -- Static-Site elision -----------------------------------------------------

TEST_F(TvarTest, StaticSiteElisionCounters) {
  set_global_config(TxConfig::compiler());
  tvar<std::uint64_t, test_sites::kCaptured> captured{0};
  tvar<std::uint64_t, test_sites::kShared> shared{0};
  atomic([&](Tx& tx) {
    captured.set(tx, 1);
    (void)captured.get(tx);
    shared.set(tx, 2);  // full barrier: manual Site is never elided
  });
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.write_elided_static, 1u);
  EXPECT_EQ(s.read_elided_static, 1u);
  EXPECT_EQ(s.writes, 2u);
  EXPECT_EQ(captured.peek(), 1u);
  EXPECT_EQ(shared.peek(), 2u);
}

TEST_F(TvarTest, TfieldInitSiteIsStaticallyCaptured) {
  // tfield::init routes through a Site derived from the field's Site with
  // verdict=kCaptured: the compiler preset elides it with zero runtime
  // checks.
  set_global_config(TxConfig::compiler());
  struct Obj {
    tfield<std::uint64_t, test_sites::kShared> a;
    tfield<std::uint64_t, test_sites::kShared> b;
  };
  atomic([&](Tx& tx) {
    Obj* o = tx_new<Obj>(tx);
    o->a.init(tx, 1);
    o->b.init(tx, 2);
    tx_delete(tx, o);
  });
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.write_elided_static, 2u);
}

TEST_F(TvarTest, TxNewRegistersInAllocLog) {
  // tx_new binds construction to allocation-log registration: field writes
  // through any Site are runtime-elided as captured heap.
  set_global_config(TxConfig::runtime_w());
  struct Obj {
    tfield<std::uint64_t, test_sites::kShared> a;
  };
  atomic([&](Tx& tx) {
    Obj* o = tx_new<Obj>(tx);
    o->a.set(tx, 7);  // not the init Site — still captured at runtime
    tx_delete(tx, o);
  });
  EXPECT_EQ(stats_snapshot().write_elided_heap, 1u);
}

// -- Nested partial abort ----------------------------------------------------

TEST_F(TvarTest, NestedPartialAbortRestoresTvarWrites) {
  tvar<std::uint64_t> x{5};
  tvar<std::uint64_t> y{0};
  atomic([&](Tx& tx) {
    x.set(tx, 10);
    atomic([&](Tx& inner) {
      x.set(inner, 20);
      y.set(inner, 2);
      abort_tx();  // partial abort: only the inner level rolls back
    });
    EXPECT_EQ(x.get(tx), 10u);  // restored to the parent's value
    EXPECT_EQ(y.get(tx), 0u);
  });
  EXPECT_EQ(x.peek(), 10u);
  EXPECT_EQ(y.peek(), 0u);
}

TEST_F(TvarTest, NestedPartialAbortRestoresCapturedTfield) {
  // Paper Section 2.2.1: parent-captured memory is live-in for the child;
  // the child's elided tfield writes still need undo logging.
  set_global_config(TxConfig::runtime_w());
  struct Obj {
    tfield<std::uint64_t, test_sites::kAuto> a;
  };
  std::uint64_t observed = 0;
  atomic([&](Tx& tx) {
    Obj* o = tx_new<Obj>(tx);
    o->a.set(tx, 100);  // elided (captured by parent)
    atomic([&](Tx& inner) {
      o->a.set(inner, 999);  // elided + undo-logged at depth 2
      abort_tx();
    });
    observed = o->a.get(tx);
    tx_delete(tx, o);
  });
  EXPECT_EQ(observed, 100u);
}

TEST_F(TvarTest, NestedPartialAbortRestoresStaticallyElidedTfield) {
  // Same live-in rule for the compiler's static elision: a statically
  // elided store inside a nested transaction must be undone by its abort.
  set_global_config(TxConfig::compiler());
  struct Obj {
    tfield<std::uint64_t, test_sites::kCaptured> a;
  };
  std::uint64_t observed = 0;
  atomic([&](Tx& tx) {
    Obj* o = tx_new<Obj>(tx);
    o->a.set(tx, 100);  // statically elided
    atomic([&](Tx& inner) {
      o->a.set(inner, 999);  // statically elided + undo-logged at depth 2
      abort_tx();
    });
    observed = o->a.get(tx);
    tx_delete(tx, o);
  });
  EXPECT_EQ(observed, 100u);
  EXPECT_EQ(stats_snapshot().write_elided_static, 2u);
}

// -- tvar_array --------------------------------------------------------------

TEST_F(TvarTest, TvarArrayRoundTripAndZeroInit) {
  tvar_array<std::uint64_t, 4, test_sites::kShared> arr;
  atomic([&](Tx& tx) {
    for (std::size_t i = 0; i < arr.size(); ++i) {
      EXPECT_EQ(arr.get(tx, i), 0u);  // zero-initialized
      arr.set(tx, i, i + 1);
    }
    EXPECT_EQ(arr.add(tx, 2, 10), 3u);  // fetch-add on a slot
  });
  EXPECT_EQ(arr.peek(0), 1u);
  EXPECT_EQ(arr.peek(2), 13u);
}

TEST_F(TvarTest, TvarArrayCaptureClassification) {
  // A tvar_array declared inside the atomic block lives on the
  // transaction-local stack: counting mode classifies every access as
  // captured stack (Fig. 8), and runtime checks elide them.
  set_global_config(TxConfig::counting());
  atomic([&](Tx& tx) {
    tvar_array<std::uint64_t, 4, kAutoCapturedSite> scratch;
    for (std::size_t i = 0; i < scratch.size(); ++i) scratch.set(tx, i, i);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < scratch.size(); ++i) sum += scratch.get(tx, i);
    EXPECT_EQ(sum, 6u);
  });
  const TxStats counted = stats_snapshot();
  EXPECT_EQ(counted.write_cap_stack, 4u);
  EXPECT_EQ(counted.read_cap_stack, 4u);

  stats_reset();
  set_global_config(TxConfig::runtime_rw());
  atomic([&](Tx& tx) {
    tvar_array<std::uint64_t, 4, kAutoCapturedSite> scratch;
    for (std::size_t i = 0; i < scratch.size(); ++i) scratch.set(tx, i, i);
    for (std::size_t i = 0; i < scratch.size(); ++i) (void)scratch.get(tx, i);
  });
  const TxStats elided = stats_snapshot();
  EXPECT_EQ(elided.write_elided_stack, 4u);
  EXPECT_EQ(elided.read_elided_stack, 4u);
}

TEST_F(TvarTest, TvarArrayHeapCaptureViaPrivateAnnotation) {
  // The Figure 1(b) query-vector pattern: a thread-owned tvar_array
  // annotated private elides all its barriers under annotation checks.
  set_global_config(TxConfig::runtime_rw());
  static tvar_array<std::uint64_t, 8, test_sites::kAuto> query_vec;
  add_private_memory_block(query_vec.data(), query_vec.size_bytes());
  atomic([&](Tx& tx) {
    for (std::size_t i = 0; i < query_vec.size(); ++i) query_vec.set(tx, i, i);
    for (std::size_t i = 0; i < query_vec.size(); ++i) {
      (void)query_vec.get(tx, i);
    }
  });
  remove_private_memory_block(query_vec.data(), query_vec.size_bytes());
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.write_elided_private, 8u);
  EXPECT_EQ(s.read_elided_private, 8u);
}

// -- tspan -------------------------------------------------------------------

TEST_F(TvarTest, TspanViewsExternalStorage) {
  std::uint64_t storage[4] = {1, 2, 3, 4};
  tspan<std::uint64_t, test_sites::kShared> view(storage, 4);
  atomic([&](Tx& tx) {
    EXPECT_EQ(view.get(tx, 0), 1u);
    view.set(tx, 3, 40);
    EXPECT_EQ(view.add(tx, 1, 8), 2u);
  });
  EXPECT_EQ(storage[3], 40u);
  EXPECT_EQ(storage[1], 10u);
}

TEST_F(TvarTest, TspanInitIntoCapturedBackingStore) {
  // The captured grow-and-copy of TxVector/TxHeap: tspan::init into a
  // tx_malloc'd store is statically elidable.
  set_global_config(TxConfig::compiler());
  atomic([&](Tx& tx) {
    auto* block = static_cast<std::uint64_t*>(tx_malloc(tx, 4 * 8));
    tspan<std::uint64_t, test_sites::kShared> fresh(block, 4);
    for (std::size_t i = 0; i < 4; ++i) fresh.init(tx, i, i);
    tx_free(tx, block);
  });
  EXPECT_EQ(stats_snapshot().write_elided_static, 4u);
}

}  // namespace
}  // namespace cstm
