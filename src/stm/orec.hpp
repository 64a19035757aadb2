// Ownership records ("transaction records" in the paper, Section 2.1).
//
// A system-wide table maps each memory address, at cache-line granularity,
// to an ownership record. The record word encodes either
//   version << 1          (unlocked; version taken from the global clock) or
//   descriptor-ptr | 1    (locked by the writing transaction).
// Distinct addresses hashing to the same record produce false conflicts —
// the effect the paper's optimizations reduce by eliding barriers entirely.
//
// Layout: the table is sharded into cache-line-aligned STRIPES of eight
// records each, and addresses are spread across stripes with a Fibonacci
// multiplicative mixing hash instead of the old linear `(addr >> 6) & mask`.
// Two reasons, both commit-path scalability (ROADMAP direction 1):
//
//  * Padding/alignment: a stripe is exactly one cache line, so record
//    index i and record index i+8 can never share a line — writers hammering
//    neighbouring records don't false-share beyond what the hash maps
//    together.
//  * Mixing: the linear hash sends arrays (sequentially adjacent cache
//    lines) to sequentially adjacent records, concentrating a hot array's
//    locks in a few lines. The multiplicative hash scatters them across the
//    whole table while staying deterministic and cheap (one imul + shift).
//
// The hash keeps both properties the false-conflict tests rely on:
// addresses on the SAME cache line always map to the same record, and
// ADJACENT cache lines always map to different records — the index delta of
// lines differing by d is d * (kMix >> (64 - kIndexBits)) mod table size,
// which is provably nonzero for small d (see tests/test_clock_orec.cpp).
//
// Storage: the one process-wide table is an `inline constinit` object that
// holds its 8 MB of stripes in-object. Every record starts at zero (version
// 0, unlocked), so the table is constant-initialized into .bss: no
// allocation, no zeroing loop, no static-init guard, and its pages are
// touched lazily. `orec_table()` inlines to that object's address, so the
// full barriers find their record with no call. The table is trivially
// destructible, so no exit-time destructor can tear it down under a
// thread that is still running transactions.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "support/cacheline.hpp"

namespace cstm {

namespace orec {

inline constexpr std::uint64_t kLockBit = 1;

inline bool is_locked(std::uint64_t word) { return (word & kLockBit) != 0; }
inline std::uint64_t version_of(std::uint64_t word) { return word >> 1; }
inline std::uint64_t make_version(std::uint64_t version) { return version << 1; }
inline std::uint64_t make_lock(const void* owner) {
  return reinterpret_cast<std::uintptr_t>(owner) | kLockBit;
}
inline void* owner_of(std::uint64_t word) {
  return reinterpret_cast<void*>(word & ~kLockBit);
}

}  // namespace orec

class OrecTable {
 public:
  static constexpr std::size_t kSizeLog2 = 20;
  static constexpr std::size_t kSize = std::size_t{1} << kSizeLog2;
  static constexpr std::size_t kGranularityLog2 = 6;  // cache line

  /// Records per stripe: one cache line of 8-byte atomics.
  static constexpr std::size_t kStripeSlots =
      kCacheLineSize / sizeof(std::atomic<std::uint64_t>);
  static constexpr std::size_t kStripes = kSize / kStripeSlots;

  /// Fibonacci multiplicative constant (2^64 / phi). Its top-kSizeLog2
  /// slice is odd, so consecutive cache lines step the index by a nonzero
  /// odd constant mod kSize — adjacent lines never collide.
  static constexpr std::uint64_t kMix = 0x9e3779b97f4a7c15ull;

  struct alignas(kCacheLineSize) Stripe {
    std::atomic<std::uint64_t> slots[kStripeSlots]{};
  };
  static_assert(sizeof(Stripe) == kCacheLineSize,
                "a stripe must be exactly one cache line");
  static_assert(alignof(Stripe) == kCacheLineSize,
                "stripes must be cache-line aligned");
  static_assert(kStripes * kStripeSlots == kSize, "stripes must tile the table");

  std::atomic<std::uint64_t>& slot(const void* addr) {
    const std::size_t idx = index_of(addr);
    return stripes_[idx / kStripeSlots].slots[idx % kStripeSlots];
  }

  /// Index helper exposed for tests exercising false-conflict behaviour.
  /// Same cache line => same index; the mixing multiply acts on the line
  /// number only.
  static std::size_t index_of(const void* addr) {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    const std::uint64_t line = static_cast<std::uint64_t>(a) >> kGranularityLog2;
    return static_cast<std::size_t>((line * kMix) >> (64 - kSizeLog2));
  }

  /// Stripe number of @p addr, exposed for the striping tests.
  static std::size_t stripe_of(const void* addr) {
    return index_of(addr) / kStripeSlots;
  }

 private:
  Stripe stripes_[kStripes]{};
};

static_assert(std::is_trivially_destructible_v<OrecTable>,
              "the process-wide table must outlive every thread");

/// The process-wide ownership record table (see "Storage" above).
inline constinit OrecTable g_orec_table{};

inline OrecTable& orec_table() { return g_orec_table; }

}  // namespace cstm
