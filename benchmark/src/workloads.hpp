// The benchmark's workloads and the code that runs one of them: passes of
// fresh setup + timed work + verify, measured untraced and, on request,
// alternating with traced passes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "stm/config.hpp"

namespace capbench {

struct Workload {
  std::string name;
  cstm::TxConfig cfg;
  std::vector<std::string> apps;  // the mix, run in this order every pass
  double scale = 1.0;
  int threads = 1;
  /// Nonzero: replay apps[0]'s request stream through a txbatch::Batcher
  /// that flushes at this many ops, instead of running its worker().
  std::size_t batch = 0;
  /// Stream workloads: the requests one replay must issue.
  std::uint64_t requests_per_pass = 0;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

struct RunOptions {
  std::uint64_t seed = 20090811;
  /// Measured seconds: passes run until this much time has gone by. A
  /// traced run alternates untraced and traced passes within it.
  double seconds = 10.0;
  /// Nonzero: exactly this many passes per section instead.
  int passes = 0;
  bool trace = false;
  std::string out_dir;  // receives trace-<workload>.json
};

struct RunResult {
  Metrics metrics;
  /// Span self times by span name (traced runs only).
  Metrics spans;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // failed checks; empty means correct
};

/// Runs @p w: two discarded warm-up passes, then the untraced section, and
/// with opt.trace the traced one, pass by pass in turn. @p probes are the
/// unit costs the model layer uses (traced runs only).
RunResult run_workload(const Workload& w, const RunOptions& opt,
                       const Metrics& probes);

}  // namespace capbench
