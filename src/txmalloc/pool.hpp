// Thread-caching transactional memory pool (the McRT-Malloc stand-in).
//
// Each thread owns a pool with segregated free lists. Blocks carry a header
// naming their owning pool so that cross-thread frees (thread A allocates a
// node, thread B unlinks and frees it) are routed back to the owner via a
// lock-free remote-free stack. Pools are parked — never destroyed — when
// their thread exits, and recycled for future threads, so a block can always
// reach its owner.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cstm {

class Pool {
 public:
  static constexpr std::size_t kNumClasses = 16;
  static constexpr std::size_t kMaxSmall = 4096;
  static constexpr std::size_t kChunkBytes = 256 * 1024;

  Pool();
  ~Pool();
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// The calling thread's pool (acquired on first use, parked at exit).
  static Pool& local();

  /// Allocates at least @p n bytes; *usable receives the rounded block size
  /// used for allocation-log extents.
  void* allocate(std::size_t n, std::size_t* usable = nullptr);

  /// Frees a block from any thread.
  static void deallocate(void* p);

  /// Usable size of a live block.
  static std::size_t usable_size(const void* p);

  struct Stats {
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t remote_frees = 0;
    std::uint64_t chunk_bytes = 0;
  };
  Stats stats() const;

  /// Number of pools ever created (diagnostic: parked pools are reused).
  static std::size_t pool_count();

 private:
  struct Header {
    Pool* owner;        // nullptr for large (direct) allocations
    std::uint32_t cls;  // size class, kLargeClass for direct allocations
    std::uint32_t size; // usable bytes
  };
  static constexpr std::uint32_t kLargeClass = 0xffffffffu;
  static constexpr std::size_t kHeaderSize = 16;

  static Header* header_of(const void* p) {
    return reinterpret_cast<Header*>(
        reinterpret_cast<std::uintptr_t>(p) - kHeaderSize);
  }

  void* carve(std::uint32_t cls);
  void drain_remote();
  void free_local(void* p, std::uint32_t cls);
  void push_remote(void* p);

  void* freelists_[kNumClasses] = {};
  std::atomic<void*> remote_{nullptr};
  char* bump_ = nullptr;
  char* bump_end_ = nullptr;
  std::vector<void*> chunks_;
  Stats stats_;

  friend struct PoolTestAccess;
};

}  // namespace cstm
