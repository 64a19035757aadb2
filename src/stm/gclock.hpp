// Epoch-batched global version clock for optimistic-reader validation.
//
// The classic TL2/TinySTM clock is one cache line that every writing commit
// fetch_add's — the first commit-path serialization cliff once real cores
// exist. This clock splits that line's two jobs apart:
//
//  * `reserve_`   — a range allocator. A thread reserves a BATCH of
//    timestamps with one fetch_add and then stamps its next commits from
//    the thread-local remainder (`ClockReservation`), so the allocator line
//    is touched once per kBatch commits in the burst case, not once per
//    commit.
//  * `published_` — the epoch readers snapshot and validate against. It is
//    the single serialization point: a commit makes its stamp `wv` visible
//    here, via a conditional CAS-max, BEFORE releasing any ownership
//    record with version `wv`.
//
// The publication invariants the whole snapshot argument rests on (and
// that tests/test_clock_orec.cpp property-checks):
//
//  (1) Monotonic publication: `published_` only grows, and only ever takes
//      values that some transaction actually stamped.
//  (2) Publish-before-release: when an unlocked orec carries version `wv`,
//      `published_ >= wv` already holds — no reader can observe a
//      timestamp from an unpublished reservation. Hence a reader whose
//      snapshot `start_ts >= wv` took that snapshot AFTER the writer's
//      publication point, which is after the writer acquired every lock in
//      its write set: the reader either sees the lock (conflict path) or
//      the released post-publication state. A reader with
//      `start_ts < wv` revalidates lazily (Tx::extend) against
//      `published_`, which invariant (2) guarantees has caught up.
//  (3) Uniqueness: stamps come from disjoint reserved ranges and a
//      discarded range is never drawn from again, so released orec
//      versions are globally fresh (the anti-ABA requirement of the abort
//      path).
//
// Staleness: a reservation is usable only while its stamps still exceed
// `published_`. If another thread publishes past our range (interleaved
// commits), the CAS-max observes `published_ >= wv` and the remainder of
// the range is DISCARDED — those timestamps are simply never used; the
// thread re-reserves above the new epoch. Ranges therefore amortize clock
// traffic exactly when commits arrive in per-thread bursts, and degrade to
// one reserve + one publish per commit under adversarial interleaving —
// never to anything unsound. Exhaustion (the thread's cursor walking off
// the end of its range) falls back to the same re-reservation path.
//
// 63-bit timestamp space (orec words store `version << 1`): at one billion
// commits per second exhausting it takes ~290 years, so wraparound of the
// *global* counters is out of scope by construction (documented, not
// handled); wraparound of a thread's local RANGE cursor is the exhaustion
// path above.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "support/cacheline.hpp"

namespace cstm {

/// A thread's unconsumed slice of reserved timestamps: stamps
/// [next, end) remain drawable. Plain (non-atomic) fields — only the
/// owning thread touches it.
struct ClockReservation {
  std::uint64_t next = 0;
  std::uint64_t end = 0;
};

class GlobalClock {
 public:
  /// Default timestamp-range size reserved per fetch_add on the shared
  /// counter. 64 keeps the worst-case skip (a discarded range) tiny
  /// relative to the 63-bit space while amortizing the allocator line
  /// across a burst of commits.
  static constexpr std::uint64_t kDefaultBatch = 64;

  constexpr explicit GlobalClock(std::uint64_t batch = kDefaultBatch,
                                 std::uint64_t initial = 0)
      : reserve_{initial}, published_{initial}, batch_(batch == 0 ? 1 : batch) {}

  /// The published epoch: every timestamp <= this value is from a commit
  /// (or abort) whose publication point has passed. Readers snapshot this
  /// at begin and re-snapshot it in Tx::extend.
  std::uint64_t load() const {
    return published_.value.load(std::memory_order_acquire);
  }

  /// What one stamp_and_publish call did, for the caller's statistics.
  struct Stamp {
    std::uint64_t ts = 0;              // the commit timestamp, published
    std::uint64_t prev_published = 0;  // epoch the publication replaced
    std::uint32_t reservations = 0;    // shared-counter fetch_adds performed
    std::uint32_t discards = 0;        // ranges thrown away as stale
  };

  /// Draws the next timestamp from @p r (re-reserving on exhaustion or
  /// staleness) and publishes it. On return `load() >= ts` holds and
  /// `prev_published` was the epoch this stamp replaced — when it equals a
  /// committer's begin snapshot, nothing was published in between and the
  /// read set is trivially still valid (the batched form of the classic
  /// `wv == start_ts + 1` validation skip).
  Stamp stamp_and_publish(ClockReservation& r) {
    Stamp out;
    for (;;) {
      if (r.next >= r.end) {
        reserve(r);
        ++out.reservations;
      }
      const std::uint64_t wv = r.next;
      std::uint64_t p = published_.value.load(std::memory_order_acquire);
      while (p < wv) {
        // acq_rel: the success store is the publication point every
        // subsequent orec release (memory_order_release) is ordered after.
        if (published_.value.compare_exchange_weak(p, wv,
                                                   std::memory_order_acq_rel,
                                                   std::memory_order_acquire)) {
          r.next = wv + 1;
          out.ts = wv;
          out.prev_published = p;
          return out;
        }
      }
      // p >= wv: the epoch overtook this range while it sat in our pocket.
      // Invariant (3) forbids stamping below the epoch, so the remainder
      // is dead — discard it and reserve a fresh range above `p`.
      r.next = r.end;
      ++out.discards;
    }
  }

  /// Highest timestamp handed to any reservation so far (>= load() always);
  /// exposed for the property tests.
  std::uint64_t reserved_watermark() const {
    return reserve_.value.load(std::memory_order_acquire);
  }

  std::uint64_t batch() const { return batch_; }

 private:
  void reserve(ClockReservation& r) {
    // fetch_add returns a base >= published_ (published values are always
    // previously reserved ones), so a fresh range is never born stale.
    const std::uint64_t base =
        reserve_.value.fetch_add(batch_, std::memory_order_acq_rel);
    r.next = base + 1;
    r.end = base + 1 + batch_;
  }

  Padded<std::atomic<std::uint64_t>> reserve_{};
  Padded<std::atomic<std::uint64_t>> published_{};
  const std::uint64_t batch_;
};

static_assert(std::is_trivially_destructible_v<GlobalClock>,
              "the process-wide clock must outlive every thread");

/// The process-wide clock. Never reset — monotonicity keeps stale ownership
/// record versions from previous runs harmless. Constant-initialized like
/// the orec table (orec.hpp), so `global_clock()` inlines to its address.
inline constinit GlobalClock g_global_clock{};

inline GlobalClock& global_clock() { return g_global_clock; }

}  // namespace cstm
