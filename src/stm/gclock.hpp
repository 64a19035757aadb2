// Global version clock for optimistic-reader validation: the TL2 counter
// (Dice, Shalev and Shavit, DISC 2006). One padded atomic; a writing commit
// draws its version with one fetch_add, readers snapshot it with a load.
//
// The invariants the snapshot argument rests on (tests/test_clock_orec.cpp
// property-checks them):
//
//  (1) Publish-before-release: a stamp is visible in `load()` the moment
//      stamp() returns, and a committer releases orecs with version `wv`
//      only after that. So when an unlocked orec carries `wv`,
//      `load() >= wv` already holds. A reader whose snapshot
//      `start_ts >= wv` took it after the writer acquired every lock in its
//      write set: it sees either the lock (conflict path) or the released
//      post-state. A reader with `start_ts < wv` revalidates lazily
//      (Tx::extend) against a `load()` that has caught up.
//  (2) Uniqueness: every stamp() returns a value no other call returns, so
//      released orec versions are globally fresh (the anti-ABA requirement
//      of the abort path).
//
// 63-bit timestamp space (orec words store `version << 1`): at one billion
// commits per second exhausting it takes ~290 years, so wraparound is out
// of scope by construction (documented, not handled).
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "support/cacheline.hpp"

namespace cstm {

class GlobalClock {
 public:
  /// The current version: every timestamp <= this value has been stamped.
  /// Readers snapshot this at begin and re-snapshot it in Tx::extend.
  std::uint64_t load() const {
    return now_.value.load(std::memory_order_acquire);
  }

  /// Draws a fresh, unique timestamp `ts`; on return `load() >= ts`.
  /// acq_rel: every subsequent orec release (memory_order_release) is
  /// ordered after this publication point.
  std::uint64_t stamp() {
    return now_.value.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

 private:
  Padded<std::atomic<std::uint64_t>> now_{};
};

static_assert(std::is_trivially_destructible_v<GlobalClock>,
              "the process-wide clock must outlive every thread");

/// The process-wide clock. Never reset — monotonicity keeps stale ownership
/// record versions from previous runs harmless. Constant-initialized like
/// the orec table (orec.hpp), so `global_clock()` inlines to its address.
inline constinit GlobalClock g_global_clock{};

inline GlobalClock& global_clock() { return g_global_clock; }

}  // namespace cstm
