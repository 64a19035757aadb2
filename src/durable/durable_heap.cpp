// Durable heap implementation: mmap plumbing, recovery, and the redo-log
// commit protocol (see durable_heap.hpp for the model).
#include "durable/durable_heap.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <new>
#include <vector>

#include "durable/pwb.hpp"
#include "stm/barriers.hpp"
#include "stm/descriptor.hpp"

namespace cstm::dur {

namespace {

// Redo record, serialized at log offset 0:
//   [0]  u64 seq         monotonically increasing commit number
//   [8]  u32 count       redo entries that follow
//   [12] u32 reserved
//   [16] count * {u64 where, u64 value, u32 len, u32 kind}   (24 B each)
//   [..] u64 checksum    FNV-1a over bytes [0, 16 + 24*count)
// kind 0: `where` is a volatile address — flush-accounted, never replayed.
// kind 1: `where` is an offset into the data area — replayed at recovery.
constexpr std::size_t kRecHeader = 16;
constexpr std::size_t kRecEntry = 24;
constexpr std::uint32_t kKindVolatile = 0;
constexpr std::uint32_t kKindRegion = 1;

std::uint64_t fnv1a(const unsigned char* p, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

void wr64(unsigned char* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
void wr32(unsigned char* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
std::uint64_t rd64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}
std::uint32_t rd32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

/// Durable-commit globals. One mutex serializes every durable commit in
/// the process (the log is a single slot); the fallback log backs durable
/// transactions running without an active heap — identical serialization
/// and accounting, volatile storage, no recovery.
struct Runtime {
  std::mutex commit_mutex;
  std::atomic<DurableHeap*> active{nullptr};
  std::vector<unsigned char> fallback_log;
  std::uint64_t fallback_seq = 0;
};

Runtime& runtime() {
  static Runtime rt;
  return rt;
}

/// Copies the file bytes [base, base+n) into @p dst — a fresh demand-zero
/// mapping — page by page, skipping all-zero pages so they stay
/// non-resident. pread maps no file page into the address space.
bool load_nonzero_pages(int fd, off_t base, unsigned char* dst,
                        std::size_t n) {
  constexpr std::size_t kPage = 4096;
  constexpr std::size_t kChunk = 16 * kPage;
  // On the stack, so open() leaves the process allocator as it found it:
  // freeing a large malloc'd buffer raises glibc's mmap threshold.
  unsigned char buf[kChunk];
  for (std::size_t off = 0; off < n; off += kChunk) {
    const std::size_t len = std::min(kChunk, n - off);
    for (std::size_t got = 0; got < len;) {
      const ssize_t r = pread(fd, buf + got, len - got,
                              base + static_cast<off_t>(off + got));
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      got += static_cast<std::size_t>(r);
    }
    for (std::size_t p = 0; p < len; p += kPage) {
      const unsigned char* page = buf + p;
      const std::size_t m = std::min(kPage, len - p);
      if (page[0] == 0 && std::memcmp(page, page + 1, m - 1) == 0) continue;
      std::memcpy(dst + off + p, page, m);
    }
  }
  return true;
}

[[noreturn]] void fatal(const char* what) {
  std::fprintf(stderr, "cstm durable: %s\n", what);
  std::abort();
}

}  // namespace

const char* crash_point_name(CrashPoint p) {
  switch (p) {
    case CrashPoint::kBeforeCommit: return "before-commit";
    case CrashPoint::kAfterCapturedWriteback: return "after-captured-writeback";
    case CrashPoint::kAfterEntriesWrite: return "after-entries-write";
    case CrashPoint::kAfterEntriesFlush: return "after-entries-flush";
    case CrashPoint::kAfterEntriesFence: return "after-entries-fence";
    case CrashPoint::kAfterCommitRecordWrite: return "after-record-write";
    case CrashPoint::kAfterCommitRecordFlush: return "after-record-flush";
    case CrashPoint::kAfterCommitRecordFence: return "after-record-fence";
    case CrashPoint::kDuringDataWriteback: return "during-data-writeback";
    case CrashPoint::kAfterDataWriteback: return "after-data-writeback";
    case CrashPoint::kAfterWatermark: return "after-watermark";
    case CrashPoint::kCount: break;
  }
  return "?";
}

void set_crash_hook(CrashHook hook) {
  detail::g_crash_hook.store(hook, std::memory_order_relaxed);
}

DurableHeap::~DurableHeap() { close(); }

bool DurableHeap::open(const std::string& path, const HeapOptions& opt,
                       OpenResult* result) {
  if (is_open()) return false;
  OpenResult res;
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) return false;
  // close() releases whatever a failed open() had mapped so far.
  auto fail = [this] {
    close();
    return false;
  };
  struct stat st {};
  if (fstat(fd_, &st) != 0) return fail();
  std::uint64_t data_bytes = opt.data_bytes;
  std::uint64_t log_bytes = opt.log_bytes;
  const bool created = st.st_size == 0;
  if (!created) {
    Header hdr{};
    if (pread(fd_, &hdr, sizeof(hdr), 0) != sizeof(hdr) ||
        hdr.magic != kMagic || hdr.version != kVersion) {
      return fail();
    }
    data_bytes = hdr.data_bytes;
    log_bytes = hdr.log_bytes;
  }
  // Geometry, checked before anything is mapped: a file shorter than its
  // header claims would SIGBUS on the first touch past its end. The log
  // must hold an empty record, the data area the allocator root line.
  constexpr std::uint64_t kMaxFile =
      static_cast<std::uint64_t>(std::numeric_limits<off_t>::max());
  if (log_bytes < kRecHeader + 8 || data_bytes < kUserBase ||
      log_bytes > kMaxFile - kHeaderBytes ||
      data_bytes > kMaxFile - kHeaderBytes - log_bytes) {
    return fail();
  }
  const std::uint64_t total = kHeaderBytes + log_bytes + data_bytes;
  if (created) {
    if (ftruncate(fd_, static_cast<off_t>(total)) != 0) return fail();
  } else if (static_cast<std::uint64_t>(st.st_size) < total) {
    return fail();
  }
  void* map = mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
  if (map == MAP_FAILED) return fail();
  backing_ = static_cast<unsigned char*>(map);
  backing_log_ = backing_ + kHeaderBytes;
  backing_data_ = backing_log_ + log_bytes;
  data_bytes_ = data_bytes;
  log_bytes_ = log_bytes;
  if (created) {
    Header* h = header();
    h->magic = kMagic;
    h->version = kVersion;
    h->reserved = 0;
    h->data_bytes = data_bytes;
    h->log_bytes = log_bytes;
    h->applied_seq = 0;
    // Fresh data area: the bump cursor starts past the root line. The
    // file was just truncated up from zero, so everything else is 0.
    wr64(backing_data_, kUserBase);
    res.created = true;
  } else {
    // Recovery: replay a complete record the crashed process durably
    // committed but did not finish writing back. An incomplete record
    // (checksum mismatch — the commit point was never reached) or a stale
    // one (seq at or below the watermark) is discarded: the medium already
    // holds the exact pre-transaction state.
    const std::uint64_t seq = rd64(backing_log_);
    const std::uint64_t count = rd32(backing_log_ + 8);
    const std::size_t bytes = kRecHeader + kRecEntry * count + 8;
    if (bytes <= log_bytes_ && seq > header()->applied_seq) {
      const std::uint64_t want = rd64(backing_log_ + bytes - 8);
      if (fnv1a(backing_log_, bytes - 8) == want) {
        // A checksummed record with an entry outside the data area is not
        // one this code wrote: reject the file before replaying any of it.
        for (std::uint64_t i = 0; i < count; ++i) {
          const unsigned char* e = backing_log_ + kRecHeader + kRecEntry * i;
          if (rd32(e + 20) != kKindRegion) continue;
          const std::uint64_t off = rd64(e);
          const std::uint32_t len = rd32(e + 16);
          if (off > data_bytes_ || len > data_bytes_ - off || len > 8) {
            return fail();
          }
        }
        for (std::uint64_t i = 0; i < count; ++i) {
          const unsigned char* e = backing_log_ + kRecHeader + kRecEntry * i;
          if (rd32(e + 20) != kKindRegion) continue;
          std::memcpy(backing_data_ + rd64(e), e + 8, rd32(e + 16));
          ++res.replayed_entries;
        }
        header()->applied_seq = seq;
        res.replayed_commit = true;
      }
    }
  }
  const std::uint64_t cursor = rd64(backing_data_);
  if (cursor < kUserBase || cursor > data_bytes_) return fail();
  next_seq_ = header()->applied_seq + 1;
  // Working copies are demand-zero anonymous mappings (never malloc: an
  // allocator may hand back memory that is already resident), and only
  // the medium's non-zero pages are copied in. pread maps no file page, so
  // an idle data area costs neither file nor anonymous resident pages.
  void* wl = mmap(nullptr, log_bytes_, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (wl == MAP_FAILED) return fail();
  working_log_ = static_cast<unsigned char*>(wl);
  void* wd = mmap(nullptr, data_bytes_, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (wd == MAP_FAILED) return fail();
  working_data_ = static_cast<unsigned char*>(wd);
  // 4 KiB residency even where transparent huge pages are on by default:
  // one loaded page must not fault in a 2 MiB neighbourhood of zeros.
  madvise(wd, data_bytes_, MADV_NOHUGEPAGE);
  if (!load_nonzero_pages(fd_, static_cast<off_t>(kHeaderBytes + log_bytes_),
                          working_data_, data_bytes_)) {
    return fail();
  }
  if (result != nullptr) *result = res;
  return true;
}

void DurableHeap::close() {
  if (fd_ < 0) return;
  if (active() == this) deactivate();
  if (backing_ != nullptr) {
    msync(backing_, kHeaderBytes + log_bytes_ + data_bytes_, MS_SYNC);
    munmap(backing_, kHeaderBytes + log_bytes_ + data_bytes_);
  }
  if (working_log_ != nullptr) munmap(working_log_, log_bytes_);
  if (working_data_ != nullptr) munmap(working_data_, data_bytes_);
  backing_ = backing_log_ = backing_data_ = nullptr;
  working_log_ = working_data_ = nullptr;
  ::close(fd_);
  fd_ = -1;
}

std::uint64_t* DurableHeap::root_slot(std::size_t i) {
  if (i >= kRootSlots) fatal("root slot out of range");
  return reinterpret_cast<std::uint64_t*>(working_data_) + 1 + i;
}

bool DurableHeap::contains(const void* p, std::size_t n) const {
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  const auto lo = reinterpret_cast<std::uintptr_t>(working_data_);
  return a >= lo && a + n <= lo + data_bytes_;
}

std::uint64_t DurableHeap::offset_of(const void* p) const {
  return static_cast<std::uint64_t>(static_cast<const unsigned char*>(p) -
                                    working_data_);
}

void* DurableHeap::alloc(Tx& tx, std::size_t n) {
  if (!tx.in_tx()) fatal("DurableHeap::alloc outside a transaction");
  n = (n + kPwbLine - 1) & ~(kPwbLine - 1);
  auto* cur = reinterpret_cast<std::uint64_t*>(working_data_);
  // The cursor is ordinary transactional data: its redo entry makes the
  // bump durable exactly when the allocating transaction commits, and the
  // undo log rolls it back on any abort. Contending allocators serialize
  // on its orec like any other conflicting writers.
  const std::uint64_t off = tm_read(tx, cur);
  if (off + n > data_bytes_) throw std::bad_alloc{};
  tm_write(tx, cur, off + n);
  unsigned char* p = working_data_ + off;
  // Zero the block before registering it captured: from here to commit the
  // cursor orec is held, so [off, off+n) is exclusively ours.
  std::memset(p, 0, n);
  tx.durable_note_alloc(p, n);
  return p;
}

void DurableHeap::activate() {
  runtime().active.store(this, std::memory_order_release);
}

void DurableHeap::deactivate() {
  runtime().active.store(nullptr, std::memory_order_release);
}

DurableHeap* DurableHeap::active() {
  return runtime().active.load(std::memory_order_acquire);
}

void DurableHeap::writeback_data(const void* working_ptr, std::size_t len,
                                 std::uint64_t* pwbs) {
  const std::size_t off = static_cast<const unsigned char*>(working_ptr) -
                          working_data_;
  std::memcpy(backing_data_ + off, working_data_ + off, len);
  *pwbs += lines_spanned(reinterpret_cast<std::uintptr_t>(working_ptr), len);
}

void DurableHeap::writeback_log(std::size_t off, std::size_t len,
                                std::uint64_t* pwbs) {
  std::memcpy(backing_log_ + off, working_log_ + off, len);
  *pwbs += lines_spanned(off, len);
}

void commit_tx(Tx& tx) {
  Runtime& rt = runtime();
  DurableHeap* heap = DurableHeap::active();
  std::lock_guard<std::mutex> lk(rt.commit_mutex);
  std::uint64_t pwbs = 0;
  std::uint64_t fences = 0;
  crash_point(CrashPoint::kBeforeCommit);

  // (a) Captured durable-region blocks carry no redo entries — their whole
  // body goes to the medium up front. Safe before the commit point: the
  // blocks are unreachable until the (redo-logged, non-captured) pointer
  // store publishing them is replayed or written back, so a crash here
  // leaves them as garbage in free space.
  for (const DurableAlloc& b : tx.durable_allocs) {
    if (heap != nullptr && heap->contains(b.ptr, b.size)) {
      heap->writeback_data(b.ptr, b.size, &pwbs);
      ++tx.stats.durable_captured_writebacks;
    }
  }
  crash_point(CrashPoint::kAfterCapturedWriteback);

  // (b) Serialize redo entries into the log working copy.
  const std::size_t count = tx.dlog.size();
  const std::size_t bytes = kRecHeader + kRecEntry * count + 8;
  unsigned char* log = nullptr;
  std::uint64_t seq = 0;
  if (heap != nullptr) {
    if (bytes > heap->log_bytes_) {
      fatal("redo record exceeds log capacity — raise HeapOptions::log_bytes");
    }
    log = heap->working_log_;
    seq = heap->next_seq_++;
  } else {
    rt.fallback_log.resize(bytes);
    log = rt.fallback_log.data();
    seq = ++rt.fallback_seq;
  }
  wr64(log, seq);
  wr32(log + 8, static_cast<std::uint32_t>(count));
  wr32(log + 12, 0);
  for (std::size_t i = 0; i < count; ++i) {
    const DurableWrite& w = tx.dlog[i];
    unsigned char* e = log + kRecHeader + kRecEntry * i;
    // w.value was captured at record time: w.addr may be a dead stack slot
    // by now (baseline plans log transaction-local stores too). Entries are
    // replayed in log order, so write-after-write lands on the last value.
    const std::uint64_t value = w.value;
    if (heap != nullptr && heap->contains(w.addr, w.len)) {
      wr64(e, heap->offset_of(w.addr));
      wr32(e + 20, kKindRegion);
    } else {
      wr64(e, reinterpret_cast<std::uintptr_t>(w.addr));
      wr32(e + 20, kKindVolatile);
    }
    wr64(e + 8, value);
    wr32(e + 16, w.len);
  }
  crash_point(CrashPoint::kAfterEntriesWrite);
  if (heap != nullptr) {
    heap->writeback_log(0, bytes - 8, &pwbs);
  } else {
    pwbs += lines_spanned(0, bytes - 8);
  }
  crash_point(CrashPoint::kAfterEntriesFlush);
  pfence();
  ++fences;
  crash_point(CrashPoint::kAfterEntriesFence);

  // (c) Commit record: a checksum over everything flushed so far. Once it
  // is on the medium the transaction is durably decided.
  wr64(log + bytes - 8, fnv1a(log, bytes - 8));
  crash_point(CrashPoint::kAfterCommitRecordWrite);
  if (heap != nullptr) {
    heap->writeback_log(bytes - 8, 8, &pwbs);
  } else {
    pwbs += 1;
  }
  crash_point(CrashPoint::kAfterCommitRecordFlush);
  pfence();
  ++fences;
  crash_point(CrashPoint::kAfterCommitRecordFence);

  // (d) In-place write-back of the redo'd bytes, making the log slot
  // obsolete (recovery would replay the identical values).
  bool announced = false;
  for (std::size_t i = 0; i < count; ++i) {
    const DurableWrite& w = tx.dlog[i];
    if (heap != nullptr && heap->contains(w.addr, w.len)) {
      heap->writeback_data(w.addr, w.len, &pwbs);
    } else {
      pwbs += lines_spanned(reinterpret_cast<std::uintptr_t>(w.addr), w.len);
    }
    if (!announced) {
      crash_point(CrashPoint::kDuringDataWriteback);
      announced = true;
    }
  }
  if (!announced) crash_point(CrashPoint::kDuringDataWriteback);
  pfence();
  ++fences;
  crash_point(CrashPoint::kAfterDataWriteback);

  // (e) Advance the watermark so recovery never re-applies this record.
  // Purely an optimization — replay is idempotent — but it bounds recovery
  // to "at most the one in-flight record".
  if (heap != nullptr) heap->header()->applied_seq = seq;
  pwbs += 1;
  pfence();
  ++fences;
  crash_point(CrashPoint::kAfterWatermark);

  ++tx.stats.durable_commits;
  tx.stats.durable_pwbs += pwbs;
  tx.stats.durable_pfences += fences;
  tx.stats.durable_log_bytes += bytes;
}

}  // namespace cstm::dur
