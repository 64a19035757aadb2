// The one contention-management policy: a transaction that meets a locked
// orec aborts itself, and the retry loop (stm/txn.hpp) pauses for an
// exponential randomized interval before the next attempt. This is the
// paper's policy; its Table 2 attributes the 16-thread run-to-run variance
// to it.
#pragma once

#include <cstdint>

#include "support/cacheline.hpp"
#include "support/random.hpp"

namespace cstm {

class ExponentialBackoff {
 public:
  explicit ExponentialBackoff(std::uint64_t seed) : rng_(seed | 1) {}

  /// Spin for a randomized interval that doubles with each consecutive
  /// abort, capped to keep worst-case latency bounded.
  void pause(unsigned consecutive_aborts) {
    unsigned shift = consecutive_aborts < kMaxShift ? consecutive_aborts : kMaxShift;
    const std::uint64_t max_spins = kMinSpins << shift;
    const std::uint64_t spins = kMinSpins + rng_.below(max_spins);
    for (std::uint64_t i = 0; i < spins; ++i) cpu_relax();
  }

 private:
  static constexpr unsigned kMaxShift = 12;
  static constexpr std::uint64_t kMinSpins = 16;
  Xoshiro256 rng_;
};

}  // namespace cstm
