// Durable transaction mode: plan compilation, the DurableHeap region
// (create/reopen persistence, open()'s checks on the file, the
// demand-zero working copy, transactional allocation, nested-abort
// unwinding), and — the contribution under test — flush elision: stores
// the capture machinery proves transaction-local never reach the redo log,
// so a fully-captured transaction flushes nothing and capture-enabled
// durable runs issue measurably fewer pwb()s than the flush-everything
// baseline on the same workload.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "durable/durable_heap.hpp"
#include "durable/pwb.hpp"
#include "stamp/app.hpp"
#include "stm/stm.hpp"

namespace cstm {
namespace {

// Durable presets keep the exact barrier paths of their non-durable
// namesakes — the mode adds a commit-time leg, never a per-access branch —
// and only the durable presets set the plan bit. Compile-time, like the
// plan checks in test_stm_basic.cpp.
namespace plan_checks {
constexpr BarrierPlan kDurableRw =
    BarrierPlan::compile(TxConfig::durable_rw(AllocLogKind::kFilter));
static_assert(kDurableRw.read == BarrierPath::kStackHeapPrivFilter &&
              kDurableRw.write == BarrierPath::kStackHeapPrivFilter &&
              kDurableRw.log == ActiveLog::kFilter && kDurableRw.durable);

constexpr BarrierPlan kDurableBaseline =
    BarrierPlan::compile(TxConfig::durable_baseline());
static_assert(kDurableBaseline.read == BarrierPath::kFull &&
              kDurableBaseline.write == BarrierPath::kFull &&
              kDurableBaseline.log == ActiveLog::kNone &&
              kDurableBaseline.durable);

static_assert(!BarrierPlan::compile(TxConfig::baseline()).durable);
static_assert(
    !BarrierPlan::compile(TxConfig::runtime_rw(AllocLogKind::kFilter)).durable);
static_assert(!BarrierPlan::compile(TxConfig::compiler()).durable);
}  // namespace plan_checks

std::string scratch_heap_path() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const char* tmpdir = std::getenv("TMPDIR");
  return std::string(tmpdir != nullptr ? tmpdir : "/tmp") + "/cstm_" +
         info->name() + "_" + std::to_string(::getpid()) + ".heap";
}

// On-disk layout the rejection tests corrupt (durable_heap.hpp): a 4 KiB
// header {u64 magic, u32 version, u32 pad, u64 data_bytes, u64 log_bytes,
// u64 applied_seq}, then the log area, then the data area, whose first
// word is the bump cursor.
constexpr off_t kHeaderBytes = 4096;
constexpr off_t kHdrDataBytes = 16;
constexpr off_t kHdrLogBytes = 24;
constexpr std::uint64_t kUserBase = 64;

void poke64(const std::string& path, off_t at, std::uint64_t v) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::pwrite(fd, &v, sizeof(v), at), static_cast<ssize_t>(sizeof(v)));
  ::close(fd);
}

/// Resident pages of [lo, hi), from mincore(); lo is rounded down to its
/// page.
std::size_t resident_pages(const void* lo, const void* hi) {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto a = reinterpret_cast<std::uintptr_t>(lo) & ~(page - 1);
  const auto b = reinterpret_cast<std::uintptr_t>(hi);
  std::vector<unsigned char> vec((b - a + page - 1) / page);
  if (::mincore(reinterpret_cast<void*>(a), b - a, vec.data()) != 0) {
    ADD_FAILURE() << "mincore failed";
    return 0;
  }
  std::size_t n = 0;
  for (const unsigned char v : vec) n += v & 1u;
  return n;
}

class Durable : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = scratch_heap_path();
    std::remove(path_.c_str());
    set_global_config(TxConfig::baseline());
    stats_reset();
  }
  void TearDown() override {
    if (dur::DurableHeap::active() != nullptr) {
      dur::DurableHeap::active()->deactivate();
    }
    set_global_config(TxConfig::baseline());
    std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(Durable, CreateReopenPersistsTmWrites) {
  dur::OpenResult res;
  {
    dur::DurableHeap heap;
    ASSERT_TRUE(heap.open(path_, {}, &res));
    EXPECT_TRUE(res.created);
    heap.activate();
    set_global_config(TxConfig::durable_baseline());
    auto* cells = static_cast<std::uint64_t*>(heap.data());
    atomic([&](Tx& tx) {
      tm_write(tx, heap.root_slot(0), std::uint64_t{7});
      tm_write(tx, &cells[0], std::uint64_t{42});
      tm_write(tx, &cells[1], std::uint64_t{43});
    });
    const TxStats s = stats_snapshot();
    EXPECT_EQ(s.durable_commits, 1u);
    EXPECT_EQ(s.durable_stores_logged, 3u);
    EXPECT_GT(s.durable_pwbs, 0u);
    EXPECT_GT(s.durable_pfences, 0u);
    heap.deactivate();
    heap.close();
  }
  // A clean image: no commit record to replay, data already written back.
  dur::DurableHeap heap;
  ASSERT_TRUE(heap.open(path_, {}, &res));
  EXPECT_FALSE(res.created);
  EXPECT_FALSE(res.replayed_commit);
  EXPECT_EQ(*heap.root_slot(0), 7u);
  auto* cells = static_cast<std::uint64_t*>(heap.data());
  EXPECT_EQ(cells[0], 42u);
  EXPECT_EQ(cells[1], 43u);
  heap.close();
}

TEST_F(Durable, VolatileFallbackLogWithoutActiveHeap) {
  // Durable mode without a region: commits pay the full serialization and
  // flush accounting against a process-local log. Same code path as the
  // region case, which is what the differential presets rely on.
  set_global_config(TxConfig::durable_baseline());
  std::uint64_t x = 0;
  atomic([&](Tx& tx) { tm_write(tx, &x, std::uint64_t{5}); });
  EXPECT_EQ(x, 5u);
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.durable_commits, 1u);
  EXPECT_EQ(s.durable_stores_logged, 1u);
  EXPECT_GT(s.durable_pwbs, 0u);
  EXPECT_EQ(s.flushes_elided_percent(), 0.0);
}

TEST_F(Durable, OpenRejectsForeignFile) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::vector<unsigned char> junk(8192, 0xFF);
  std::fwrite(junk.data(), 1, junk.size(), f);
  std::fclose(f);
  dur::DurableHeap heap;
  EXPECT_FALSE(heap.open(path_));
  EXPECT_FALSE(heap.is_open());
}

TEST_F(Durable, OpenRejectsTruncatedFile) {
  const dur::HeapOptions opt;  // 4 MiB log, 1 MiB data
  {
    dur::DurableHeap heap;
    ASSERT_TRUE(heap.open(path_, opt));
    heap.close();
  }
  // One page of the data area survives: mapping the rest would SIGBUS on
  // the first touch past the end of the file.
  ASSERT_EQ(::truncate(path_.c_str(), kHeaderBytes +
                                          static_cast<off_t>(opt.log_bytes) +
                                          4096),
            0);
  dur::DurableHeap heap;
  EXPECT_FALSE(heap.open(path_));
  EXPECT_FALSE(heap.is_open());
  // A header whose sizes wrap or leave no room for the root line.
  poke64(path_, kHdrDataBytes, std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(heap.open(path_));
  poke64(path_, kHdrDataBytes, kUserBase - 8);
  EXPECT_FALSE(heap.open(path_));
  poke64(path_, kHdrDataBytes, 4096);
  poke64(path_, kHdrLogBytes, 8);  // no room for an empty record
  EXPECT_FALSE(heap.open(path_));
  EXPECT_FALSE(heap.is_open());
  // The same file with a geometry that fits it opens.
  poke64(path_, kHdrLogBytes, opt.log_bytes);
  ASSERT_TRUE(heap.open(path_));
  heap.close();
}

TEST_F(Durable, OpenRejectsCursorOutOfRange) {
  const dur::HeapOptions opt;
  {
    dur::DurableHeap heap;
    ASSERT_TRUE(heap.open(path_, opt));
    heap.close();
  }
  const off_t cursor_at = kHeaderBytes + static_cast<off_t>(opt.log_bytes);
  dur::DurableHeap heap;
  poke64(path_, cursor_at, opt.data_bytes + 64);
  EXPECT_FALSE(heap.open(path_));
  poke64(path_, cursor_at, kUserBase - 8);
  EXPECT_FALSE(heap.open(path_));
  EXPECT_FALSE(heap.is_open());
  // Both ends of the range are valid: a full area and an empty one.
  poke64(path_, cursor_at, opt.data_bytes);
  ASSERT_TRUE(heap.open(path_));
  heap.close();
  poke64(path_, cursor_at, kUserBase);
  ASSERT_TRUE(heap.open(path_));
  heap.close();
}

TEST_F(Durable, AllocExhaustionThrowsBadAlloc) {
  dur::DurableHeap heap;
  ASSERT_TRUE(heap.open(path_));
  heap.activate();
  set_global_config(TxConfig::durable_rw(AllocLogKind::kTree));
  const std::uint64_t cursor = *static_cast<std::uint64_t*>(heap.at(0));
  EXPECT_THROW(atomic([&](Tx& tx) {
                 (void)heap.alloc(tx, heap.user_bytes() + 1);
               }),
               std::bad_alloc);
  // The failed transaction left nothing behind: no durable commit, and the
  // cursor on the medium is where it was.
  EXPECT_EQ(stats_snapshot().durable_commits, 0u);
  heap.deactivate();
  heap.close();

  ASSERT_TRUE(heap.open(path_));
  EXPECT_EQ(*static_cast<std::uint64_t*>(heap.at(0)), cursor);
  heap.activate();
  std::uint64_t off = 0;
  atomic([&](Tx& tx) { off = heap.offset_of(heap.alloc(tx, 64)); });
  EXPECT_EQ(off, cursor);
  // No orec stayed locked: a write next to the cursor commits first time.
  stats_reset();
  atomic([&](Tx& tx) {
    tm_write(tx, heap.root_slot(0), std::uint64_t{1});
  });
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.aborts, 0u);
  EXPECT_EQ(s.durable_commits, 1u);
  heap.deactivate();
  heap.close();
}

/// Writes a checksummed one-entry region record (seq 1 > watermark 0) into
/// the log slot, so the next open() replays it.
void write_region_record(const std::string& path, std::uint64_t where,
                         std::uint32_t len) {
  unsigned char rec[16 + 24 + 8] = {};
  const std::uint64_t seq = 1;
  const std::uint32_t count = 1;
  const std::uint64_t value = 0x1122334455667788ull;
  const std::uint32_t kind = 1;
  std::memcpy(rec, &seq, 8);
  std::memcpy(rec + 8, &count, 4);
  std::memcpy(rec + 16, &where, 8);
  std::memcpy(rec + 24, &value, 8);
  std::memcpy(rec + 32, &len, 4);
  std::memcpy(rec + 36, &kind, 4);
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a, as commit_tx
  for (std::size_t i = 0; i < 40; ++i) {
    h ^= rec[i];
    h *= 1099511628211ull;
  }
  std::memcpy(rec + 40, &h, 8);
  const int fd = ::open(path.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::pwrite(fd, rec, sizeof(rec), kHeaderBytes),
            static_cast<ssize_t>(sizeof(rec)));
  ::close(fd);
}

TEST_F(Durable, OpenRejectsOutOfRangeRedoEntry) {
  const dur::HeapOptions opt;
  {
    dur::DurableHeap heap;
    ASSERT_TRUE(heap.open(path_, opt));
    heap.close();
  }
  struct Entry {
    std::uint64_t where;
    std::uint32_t len;
  };
  const Entry bad[] = {
      {opt.data_bytes - 4, 8},                              // runs past the end
      {std::numeric_limits<std::uint64_t>::max() - 3, 8},   // off + len wraps
      {kUserBase, 16},                                      // wider than a word
  };
  dur::DurableHeap heap;
  for (const Entry& e : bad) {
    write_region_record(path_, e.where, e.len);
    EXPECT_FALSE(heap.open(path_)) << "where=" << e.where << " len=" << e.len;
    EXPECT_FALSE(heap.is_open());
  }
  // The same record in range replays.
  write_region_record(path_, kUserBase, 8);
  dur::OpenResult res;
  ASSERT_TRUE(heap.open(path_, opt, &res));
  EXPECT_TRUE(res.replayed_commit);
  EXPECT_EQ(res.replayed_entries, 1u);
  EXPECT_EQ(*static_cast<std::uint64_t*>(heap.data()), 0x1122334455667788ull);
  heap.close();
}

// -- Demand-zero working copy -------------------------------------------------

TEST_F(Durable, FreshHeapWorkingCopyIsNotResident) {
  dur::HeapOptions opt;
  opt.data_bytes = std::size_t{16} << 20;
  for (int round = 0; round < 2; ++round) {  // create, then reopen
    dur::DurableHeap heap;
    ASSERT_TRUE(heap.open(path_, opt));
    auto* lo = static_cast<unsigned char*>(heap.data());
    // Only the root line's page (the bump cursor) holds data.
    EXPECT_LE(resident_pages(lo, lo + heap.user_bytes()), 2u)
        << (round == 0 ? "fresh heap" : "reopened heap");
    heap.close();
  }
}

TEST_F(Durable, ReopenLoadsOnlyNonZeroPages) {
  dur::HeapOptions opt;
  opt.data_bytes = std::size_t{16} << 20;
  const std::uint64_t kLast = 0xFEEDFACECAFEBEEFull;
  {
    dur::DurableHeap heap;
    ASSERT_TRUE(heap.open(path_, opt));
    heap.activate();
    set_global_config(TxConfig::durable_baseline());
    auto* last = reinterpret_cast<std::uint64_t*>(
        static_cast<unsigned char*>(heap.data()) + heap.user_bytes() - 8);
    atomic([&](Tx& tx) { tm_write(tx, last, kLast); });
    heap.deactivate();
    heap.close();
  }
  dur::DurableHeap heap;
  ASSERT_TRUE(heap.open(path_, opt));
  auto* base = static_cast<unsigned char*>(heap.at(0));
  auto* end = static_cast<unsigned char*>(heap.data()) + heap.user_bytes();
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  // Every page between the root line and the last one stayed on the medium.
  EXPECT_EQ(resident_pages(base + page, end - page), 0u);
  std::uint64_t got = 0;
  std::memcpy(&got, end - 8, 8);
  EXPECT_EQ(got, kLast);
  heap.close();
}

TEST_F(Durable, RegionAllocIsCapturedAndPersists) {
  dur::DurableHeap heap;
  ASSERT_TRUE(heap.open(path_));
  heap.activate();
  set_global_config(TxConfig::durable_rw(AllocLogKind::kTree));
  std::uint64_t off = 0;
  atomic([&](Tx& tx) {
    auto* p = static_cast<std::uint64_t*>(heap.alloc(tx, 64));
    for (int i = 0; i < 8; ++i) {
      tm_write(tx, &p[i], std::uint64_t(i + 1), kAutoSite);  // captured
    }
    off = heap.offset_of(p);
    tm_write(tx, heap.root_slot(0), off);  // shared: redo-logged
  });
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.durable_allocs, 1u);
  EXPECT_EQ(s.durable_captured_writebacks, 1u);
  EXPECT_GE(s.write_elided_heap, 8u);
  // Only the bump cursor and the root slot reached the redo log; the eight
  // block stores rode the wholesale captured write-back.
  EXPECT_EQ(s.durable_stores_logged, 2u);
  EXPECT_GT(s.flushes_elided_percent(), 50.0);
  heap.deactivate();
  heap.close();

  dur::DurableHeap re;
  ASSERT_TRUE(re.open(path_));
  EXPECT_EQ(*re.root_slot(0), off);
  auto* p = static_cast<std::uint64_t*>(re.at(off));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(p[i], std::uint64_t(i + 1));
  re.close();
}

TEST_F(Durable, NestedAbortUnwindsAllocCursorAndRedoEntries) {
  dur::DurableHeap heap;
  ASSERT_TRUE(heap.open(path_));
  heap.activate();
  set_global_config(TxConfig::durable_rw(AllocLogKind::kTree));
  void* aborted_block = nullptr;
  void* reused_block = nullptr;
  atomic([&](Tx& tx) {
    tm_write(tx, heap.root_slot(0), std::uint64_t{1});
    atomic([&](Tx& inner) {
      tm_write(inner, heap.root_slot(1), std::uint64_t{99});
      aborted_block = heap.alloc(inner, 64);
      abort_tx();  // partial abort: cursor, capture entry, redo entry unwind
    });
    reused_block = heap.alloc(tx, 64);
    tm_write(tx, heap.root_slot(2), std::uint64_t{3});
  });
  // The cursor rolled back with the nested level: the retry allocation
  // lands on the same bytes.
  EXPECT_EQ(reused_block, aborted_block);
  // Only the surviving level's blocks are written back at commit.
  EXPECT_EQ(stats_snapshot().durable_captured_writebacks, 1u);
  heap.deactivate();
  heap.close();

  dur::DurableHeap re;
  ASSERT_TRUE(re.open(path_));
  EXPECT_EQ(*re.root_slot(0), 1u);
  EXPECT_EQ(*re.root_slot(1), 0u);  // the aborted inner write never persisted
  EXPECT_EQ(*re.root_slot(2), 3u);
  re.close();
}

// -- Flush-elision accounting -------------------------------------------------

TEST_F(Durable, FullyCapturedTransactionElidesEveryFlush) {
  // Scratch-only transaction: every store is captured, the redo log stays
  // empty, and the durable leg never even runs — 100% of flushes elided.
  set_global_config(TxConfig::durable_rw(AllocLogKind::kTree));
  atomic([&](Tx& tx) {
    auto* scratch = static_cast<std::uint64_t*>(tx_malloc(tx, 64));
    for (int i = 0; i < 8; ++i) {
      tm_write(tx, &scratch[i], std::uint64_t(i), kAutoSite);
    }
    tx_free(tx, scratch);
  });
  const TxStats s = stats_snapshot();
  EXPECT_GE(s.write_elided_heap, 8u);
  EXPECT_EQ(s.durable_stores_logged, 0u);
  EXPECT_EQ(s.durable_commits, 0u);
  EXPECT_EQ(s.durable_pwbs, 0u);
  EXPECT_EQ(s.flushes_elided_percent(), 100.0);
}

TEST_F(Durable, CaptureDisabledElidesNoFlushes) {
  set_global_config(TxConfig::durable_baseline());
  atomic([&](Tx& tx) {
    auto* scratch = static_cast<std::uint64_t*>(tx_malloc(tx, 64));
    for (int i = 0; i < 8; ++i) {
      tm_write(tx, &scratch[i], std::uint64_t(i), kAutoSite);
    }
    tx_free(tx, scratch);
  });
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.write_elided(), 0u);
  EXPECT_GE(s.durable_stores_logged, 8u);
  EXPECT_EQ(s.durable_commits, 1u);
  EXPECT_EQ(s.flushes_elided_percent(), 0.0);
}

TEST_F(Durable, CaptureCutsPwbTrafficVsDisabledOnSameWorkload) {
  // The acceptance criterion: identical capture-heavy workload, durable
  // mode with capture vs without — capture must issue measurably fewer
  // pwb()s, because captured stores produce no redo entries to flush.
  auto run = [&](const TxConfig& cfg) {
    std::remove(path_.c_str());
    dur::DurableHeap heap;
    EXPECT_TRUE(heap.open(path_));
    heap.activate();
    set_global_config(cfg);
    stats_reset();
    for (int t = 0; t < 16; ++t) {
      atomic([&](Tx& tx) {
        auto* p = static_cast<std::uint64_t*>(heap.alloc(tx, 128));
        for (int i = 0; i < 16; ++i) {
          tm_write(tx, &p[i], std::uint64_t(t * 100 + i), kAutoSite);
        }
        tm_write(tx, heap.root_slot(0), heap.offset_of(p));
      });
    }
    const TxStats s = stats_snapshot();
    heap.deactivate();
    heap.close();
    return s;
  };
  const TxStats with_capture = run(TxConfig::durable_rw(AllocLogKind::kTree));
  const TxStats no_capture = run(TxConfig::durable_baseline());
  EXPECT_EQ(with_capture.durable_commits, no_capture.durable_commits);
  EXPECT_LT(with_capture.durable_stores_logged, no_capture.durable_stores_logged);
  EXPECT_LT(with_capture.durable_pwbs, no_capture.durable_pwbs);
  EXPECT_GT(with_capture.flushes_elided_percent(), 50.0);
  EXPECT_EQ(no_capture.flushes_elided_percent(), 0.0);
}

}  // namespace
}  // namespace cstm

// Elision on a real workload: replaying the vacation-low request stream at
// growing merge factors raises the capture-hit rate (txbatch's whole
// point), and the flushes-elided share must ride along monotonically.
namespace cstm::stamp {
namespace {

TEST(DurableStream, FlushElisionTracksCaptureHitRateOnVacation) {
  set_global_config(TxConfig::durable_rw(AllocLogKind::kTree));
  double prev_elided = -1.0;
  double prev_hit = -1.0;
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{16}, std::size_t{64}}) {
    stats_reset();
    auto app = make_app("vacation-low");
    AppParams params;
    params.threads = 1;
    params.scale = 0.05;
    std::uint64_t requests = 0;
    run_app_stream(*app, params, batch, &requests);
    EXPECT_GT(requests, 0u);
    const TxStats s = stats_snapshot();
    EXPECT_GT(s.durable_commits, 0u);
    EXPECT_GE(s.capture_hit_percent(), prev_hit);
    EXPECT_GE(s.flushes_elided_percent(), prev_elided);
    prev_hit = s.capture_hit_percent();
    prev_elided = s.flushes_elided_percent();
  }
  // The sweep moved: merging must have bought real elision, not a flat 0.
  EXPECT_GT(prev_elided, 0.0);
  set_global_config(TxConfig::baseline());
}

}  // namespace
}  // namespace cstm::stamp
