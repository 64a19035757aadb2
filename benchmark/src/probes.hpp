// Unit-cost probes: public library calls timed in fixed loops, reported as
// the median over repetitions in ns per call. The model layer multiplies
// them by the per-pass counts of a workload.
#pragma once

#include "common.hpp"

namespace capbench {

/// Runs every probe @p reps times. The durable probes need an active
/// DurableHeap (cstm::dur::DurableHeap::activate).
Metrics run_probes(int reps);

}  // namespace capbench
