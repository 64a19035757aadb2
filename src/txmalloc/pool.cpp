#include "txmalloc/pool.hpp"

#include <cstring>
#include <mutex>
#include <new>

#include "support/cacheline.hpp"

namespace cstm {

namespace {

// Size classes: multiples of 16 with ~1.5x growth; index via lookup table.
constexpr std::size_t kClassSizes[Pool::kNumClasses] = {
    16,  32,  48,  64,  96,  128,  192,  256,
    384, 512, 768, 1024, 1536, 2048, 3072, 4096};

struct ClassTable {
  std::uint8_t idx[Pool::kMaxSmall / 16 + 1];
  constexpr ClassTable() : idx{} {
    std::size_t cls = 0;
    for (std::size_t u = 0; u <= Pool::kMaxSmall / 16; ++u) {
      const std::size_t bytes = u * 16;
      while (kClassSizes[cls] < bytes) ++cls;
      idx[u] = static_cast<std::uint8_t>(cls);
    }
  }
};
constexpr ClassTable kClassTable{};

std::uint32_t class_of(std::size_t n) {
  const std::size_t u = (n + 15) / 16;
  return kClassTable.idx[u];
}

std::size_t g_pool_count = 0;

// Parked pools live forever (blocks may still point at their owner), so the
// registry — and the mutex guarding it, which late-exiting threads lock from
// their thread_local destructors — must outlive static destruction too.
// Keeping the registry immortal also preserves LeakSanitizer's only
// reachability root to the pools.
std::mutex& pool_mutex() {
  static std::mutex* m = new std::mutex();
  return *m;
}

std::vector<Pool*>& parked_pools() {
  static std::vector<Pool*>* parked = new std::vector<Pool*>();
  return *parked;
}

Pool* acquire_pool() {
  std::lock_guard<std::mutex> lk(pool_mutex());
  auto& parked = parked_pools();
  if (!parked.empty()) {
    Pool* p = parked.back();
    parked.pop_back();
    return p;
  }
  ++g_pool_count;
  return new Pool();  // intentionally immortal: parked on thread exit
}

void park_pool(Pool* p) {
  std::lock_guard<std::mutex> lk(pool_mutex());
  parked_pools().push_back(p);
}

struct PoolHolder {
  Pool* pool = acquire_pool();
  ~PoolHolder() { park_pool(pool); }
};

}  // namespace

Pool::Pool() = default;

Pool::~Pool() {
  for (void* c : chunks_) ::operator delete(c);
}

Pool& Pool::local() {
  thread_local PoolHolder holder;
  return *holder.pool;
}

std::size_t Pool::pool_count() {
  std::lock_guard<std::mutex> lk(pool_mutex());
  return g_pool_count;
}

void* Pool::carve(std::uint32_t cls) {
  const std::size_t need = kHeaderSize + kClassSizes[cls];
  if (static_cast<std::size_t>(bump_end_ - bump_) < need) {
    char* chunk = static_cast<char*>(::operator new(kChunkBytes));
    chunks_.push_back(chunk);
    bump_ = chunk;
    bump_end_ = chunk + kChunkBytes;
  }
  char* block = bump_;
  bump_ += align_up(need, 16);
  auto* h = reinterpret_cast<Header*>(block);
  h->owner = this;
  h->cls = cls;
  h->size = static_cast<std::uint32_t>(kClassSizes[cls]);
  return block + kHeaderSize;
}

void Pool::drain_remote() {
  void* head = remote_.exchange(nullptr, std::memory_order_acquire);
  while (head != nullptr) {
    void* next = *static_cast<void**>(head);
    free_local(head, header_of(head)->cls);
    head = next;
  }
}

// The freelist link occupies the block's first word. A *reader* zombie —
// a doomed transaction that started after the block's free committed — may
// still issue its (relaxed-atomic, validation-doomed) load of that word
// concurrently with these link stores: quarantine only guarantees no zombie
// WRITER remains, because only writes can corrupt allocator metadata.
// Relaxed atomic link stores keep that benign-by-design race well-defined
// (same x86-64 codegen as plain moves), matching the repo-wide TSan rule.

void Pool::free_local(void* p, std::uint32_t cls) {
  __atomic_store_n(static_cast<void**>(p), freelists_[cls], __ATOMIC_RELAXED);
  freelists_[cls] = p;
}

void Pool::push_remote(void* p) {
  void* head = remote_.load(std::memory_order_relaxed);
  do {
    __atomic_store_n(static_cast<void**>(p), head, __ATOMIC_RELAXED);
  } while (!remote_.compare_exchange_weak(head, p, std::memory_order_release,
                                          std::memory_order_relaxed));
}

void* Pool::allocate(std::size_t n, std::size_t* usable) {
  if (n > kMaxSmall) {
    char* raw = static_cast<char*>(::operator new(kHeaderSize + n));
    auto* h = reinterpret_cast<Header*>(raw);
    h->owner = nullptr;
    h->cls = kLargeClass;
    h->size = static_cast<std::uint32_t>(n);
    if (usable != nullptr) *usable = n;
    return raw + kHeaderSize;
  }
  const std::uint32_t cls = class_of(n == 0 ? 1 : n);
  if (usable != nullptr) *usable = kClassSizes[cls];
  if (freelists_[cls] == nullptr) drain_remote();
  if (void* p = freelists_[cls]) {
    freelists_[cls] = *static_cast<void**>(p);
    return p;
  }
  return carve(cls);
}

void Pool::deallocate(void* p) {
  if (p == nullptr) return;
  Header* h = header_of(p);
  if (h->cls == kLargeClass) {
    ::operator delete(reinterpret_cast<char*>(h));
    return;
  }
  Pool* owner = h->owner;
  if (owner == &local()) {
    owner->free_local(p, h->cls);
  } else {
    owner->push_remote(p);
  }
}

std::size_t Pool::usable_size(const void* p) { return header_of(p)->size; }

}  // namespace cstm
