// Durable heap: a file-backed region plus a single-slot redo log giving
// transactions failure atomicity (ROADMAP direction 2, after "Persistent
// Memory Transactions" and architecture-aware PM-STM designs; PAPERS.md).
//
// Model. The file is [header | log area | data area]. In the default
// simulated-PM mode the data and log areas each have a volatile WORKING
// copy that transactions actually access; the mmap is the persistent
// medium and only pwb() moves bytes onto it (src/durable/pwb.hpp). The
// working copies are demand-zero anonymous mappings: open() checks the
// file's geometry against its size, runs recovery, then preads the data
// area and copies in only its non-zero pages, so the working copy is an
// exact image of the medium that costs memory only where the medium
// holds data. The STM remains in-place and undo-based on the working
// copy — durability is a commit-time concern only:
//
//   commit:  write-back captured blocks → serialize redo entries →
//            flush(entries) → fence → flush(commit record) → fence →
//            in-place write-back of redo'd bytes → fence → advance
//            watermark
//   recover: on open, a complete commit record (checksum valid) with
//            seq > applied watermark is replayed into the medium;
//            anything else is discarded. Replay is idempotent.
//
// Because every commit finishes its own data write-back before releasing
// the commit mutex, at most ONE transaction's record is ever live — the
// log is a single slot at offset 0, rewritten by each durable commit.
//
// The capture connection (this repo's contribution): stores the barrier
// plan classifies as captured never reach the redo log — the block either
// dies with the transaction (volatile captured memory) or is written back
// wholesale in step one (blocks from DurableHeap::alloc, which are
// unreachable until a non-captured pointer store carried by the redo log
// commits). TxStats::flushes_elided_percent() reports the win.
//
// Limits, by design: one active heap at a time (activate()); allocation is
// a line-granular bump allocator with no free; blocks from alloc() must
// not be passed to tx_free. The log slot must fit one transaction's write
// set — overflow is a loud abort, sized by HeapOptions::log_bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace cstm {
class Tx;
}

namespace cstm::dur {

struct HeapOptions {
  std::size_t data_bytes = std::size_t{1} << 20;
  std::size_t log_bytes = std::size_t{1} << 22;
};

/// What open() found: a fresh file, a clean image, or a completed commit
/// record that recovery replayed.
struct OpenResult {
  bool created = false;
  bool replayed_commit = false;
  std::uint64_t replayed_entries = 0;
};

class DurableHeap {
 public:
  DurableHeap() = default;
  ~DurableHeap();
  DurableHeap(const DurableHeap&) = delete;
  DurableHeap& operator=(const DurableHeap&) = delete;

  /// Maps (creating if absent) the heap file and runs recovery. Returns
  /// false on I/O or format errors: a foreign header, a file shorter than
  /// its header's geometry, a bump cursor outside the data area, or a
  /// committed redo entry outside it. Sizes are taken from the header when
  /// the file already exists.
  bool open(const std::string& path, const HeapOptions& opt = {},
            OpenResult* result = nullptr);
  void close();
  bool is_open() const { return backing_ != nullptr; }

  /// User data area (working copy), after the allocator root line. All
  /// access must go through tm_read/tm_write inside transactions.
  void* data() { return working_data_ + kUserBase; }
  std::size_t user_bytes() const { return data_bytes_ - kUserBase; }

  /// Named root cells (u64, tm-accessed) for applications to anchor their
  /// structures — typically holding offsets returned by offset_of().
  static constexpr std::size_t kRootSlots = 6;
  std::uint64_t* root_slot(std::size_t i);

  /// Transactional line-granular bump allocation from the data area. The
  /// block is zeroed, registered with the transaction's capture log (so
  /// its stores elide both STM barriers and redo logging), and written
  /// back wholesale at commit. Aborts — full or partial — unwind the
  /// cursor and the capture entries. Throws std::bad_alloc when the data
  /// area is exhausted.
  void* alloc(Tx& tx, std::size_t n);

  bool contains(const void* p, std::size_t n) const;
  std::uint64_t offset_of(const void* p) const;
  void* at(std::uint64_t off) { return working_data_ + off; }

  /// Makes this heap the target of durable commits (redo entries whose
  /// address falls inside the data area replay at recovery; everything
  /// else is flush-accounted only). Without an active heap, durable
  /// transactions pay the full serialization and flush accounting against
  /// a process-local volatile log — same code path, no recovery story.
  void activate();
  void deactivate();
  static DurableHeap* active();

 private:
  friend void commit_tx(Tx& tx);

  static constexpr std::uint64_t kMagic = 0x4353544d44555231ull;  // CSTMDUR1
  static constexpr std::uint32_t kVersion = 1;
  static constexpr std::size_t kHeaderBytes = 4096;
  /// Line 0 of the data area: [0] bump cursor, [1..] root slots.
  static constexpr std::size_t kUserBase = 64;

  struct Header {
    std::uint64_t magic;
    std::uint32_t version;
    std::uint32_t reserved;
    std::uint64_t data_bytes;
    std::uint64_t log_bytes;
    std::uint64_t applied_seq;
  };

  Header* header() { return reinterpret_cast<Header*>(backing_); }

  /// Byte-precise working→medium copy for data-area bytes, counting line
  /// traffic. Byte precision (not whole lines) keeps concurrent
  /// transactions' uncommitted working bytes off the medium when they
  /// share a line; alloc()'s line rounding makes blocks line-exclusive
  /// anyway, belt and braces.
  void writeback_data(const void* working_ptr, std::size_t len,
                      std::uint64_t* pwbs);
  void writeback_log(std::size_t off, std::size_t len, std::uint64_t* pwbs);

  unsigned char* backing_ = nullptr;  // whole-file mapping
  unsigned char* backing_log_ = nullptr;
  unsigned char* backing_data_ = nullptr;
  unsigned char* working_log_ = nullptr;
  unsigned char* working_data_ = nullptr;
  std::size_t data_bytes_ = 0;
  std::size_t log_bytes_ = 0;
  std::uint64_t next_seq_ = 1;
  int fd_ = -1;
};

/// The durable leg of Tx::commit_top, called after read-set validation and
/// before orec release (so no other transaction observes state that is not
/// yet durable). Serializes under a global commit mutex.
void commit_tx(Tx& tx);

}  // namespace cstm::dur
