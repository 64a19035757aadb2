// Transaction-side logs: read set, owned-orec (write) set, and undo log.
// All three support marks for closed nesting with partial abort.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <vector>

namespace cstm {

/// Read-set entry: the ownership record and the (unlocked) word observed.
struct ReadEntry {
  std::atomic<std::uint64_t>* rec;
  std::uint64_t observed;
};

/// Write-set entry: an ownership record this transaction locked, plus the
/// word to restore on abort.
struct OwnedOrec {
  std::atomic<std::uint64_t>* rec;
  std::uint64_t prev;
};

/// Undo-log entry: up to 8 bytes of pre-image at an arbitrary address.
struct UndoEntry {
  void* addr;
  std::uint64_t image;
  std::uint32_t len;
};

/// Durable write log entry: a non-captured store made under a durable
/// plan. The post-image is captured at record time, while the stored-to
/// address is certainly alive — a baseline (capture-off) plan logs stores
/// to transaction-local stack slots too, and those frames are gone by
/// commit. Overwrites append fresh entries; replay in log order yields the
/// final state. Captured stores never enter this log; that is the flush
/// elision (src/durable/durable_heap.hpp).
struct DurableWrite {
  void* addr;
  std::uint64_t value;
  std::uint32_t len;
};

/// A block handed out by DurableHeap::alloc — captured, so written back
/// wholesale at durable commit instead of through redo entries.
struct DurableAlloc {
  void* ptr;
  std::size_t size;
};

template <typename T>
class TxLog {
 public:
  void push(const T& e) { items_.push_back(e); }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  void clear() { items_.clear(); }
  void truncate(std::size_t n) { items_.resize(n); }
  const T& operator[](std::size_t i) const { return items_[i]; }
  T& operator[](std::size_t i) { return items_[i]; }
  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

 private:
  std::vector<T> items_;
};

class UndoLog : public TxLog<UndoEntry> {
 public:
  /// Records the current bytes at [addr, addr+len), len <= 8.
  [[gnu::always_inline]] void record(void* addr, std::uint32_t len) {
    UndoEntry e{addr, 0, len};
    std::memcpy(&e.image, addr, len);
    push(e);
  }

  /// Restores pre-images in reverse order, down to (and excluding) @p from.
  ///
  /// Entries whose address lies in [skip_lo, skip_hi) are NOT restored.
  /// Callers pass the dead transaction-local stack window: locals created
  /// inside the (sub)transaction die with it, and by rollback time their
  /// addresses may be occupied by the *live frames of the rollback code
  /// itself* — writing there would smash return addresses. Skipping is
  /// sound because such memory is never read after the abort: a full abort
  /// re-executes the body with fresh locals, and a mid-body abort unwinds
  /// the frames immediately after. Live-in stack memory (above the
  /// transaction's start_sp) and all heap addresses are restored normally.
  void rollback(std::size_t from, std::uintptr_t skip_lo = 0,
                std::uintptr_t skip_hi = 0) {
    for (std::size_t i = size(); i-- > from;) {
      const UndoEntry& e = (*this)[i];
      const auto a = reinterpret_cast<std::uintptr_t>(e.addr);
      if (a >= skip_lo && a < skip_hi) continue;
      store_image(e.addr, e.image, e.len);
    }
    truncate(from);
  }

 private:
  /// Restore stores race with optimistic readers that are about to fail
  /// validation (the word's orec is locked by the aborting owner, so any
  /// concurrent reader re-samples and discards the value). Relaxed atomic
  /// stores keep those races well-defined — same x86-64 codegen as plain
  /// moves, no false positives under ThreadSanitizer.
  static void store_image(void* addr, std::uint64_t image, std::uint32_t len) {
    // record() fills `image` with memcpy of the object representation, so
    // every extraction here must also go through memcpy — a value cast
    // would read the wrong end of `image` on big-endian targets.
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    switch (len) {
      case 8:
        if (a % 8 == 0) {
          __atomic_store_n(static_cast<std::uint64_t*>(addr), image,
                           __ATOMIC_RELAXED);
          return;
        }
        break;
      case 4:
        if (a % 4 == 0) {
          std::uint32_t v;
          std::memcpy(&v, &image, sizeof(v));
          __atomic_store_n(static_cast<std::uint32_t*>(addr), v,
                           __ATOMIC_RELAXED);
          return;
        }
        break;
      case 2:
        if (a % 2 == 0) {
          std::uint16_t v;
          std::memcpy(&v, &image, sizeof(v));
          __atomic_store_n(static_cast<std::uint16_t*>(addr), v,
                           __ATOMIC_RELAXED);
          return;
        }
        break;
      case 1: {
        std::uint8_t v;
        std::memcpy(&v, &image, sizeof(v));
        __atomic_store_n(static_cast<std::uint8_t*>(addr), v,
                         __ATOMIC_RELAXED);
        return;
      }
      default:
        break;
    }
    // Unaligned or odd-length pre-image: restore byte-wise.
    unsigned char bytes[sizeof(image)];
    std::memcpy(bytes, &image, sizeof(bytes));
    auto* p = static_cast<unsigned char*>(addr);
    for (std::uint32_t i = 0; i < len; ++i) {
      __atomic_store_n(p + i, bytes[i], __ATOMIC_RELAXED);
    }
  }
};

}  // namespace cstm
