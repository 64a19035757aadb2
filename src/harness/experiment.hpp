// Experiment driver: runs the STAMP applications under the paper's STM
// configurations and prints each table/figure of Section 4. One bench
// binary per experiment calls exactly one of these printers. The harness
// links no TxIR: the static analysis' precision table comes from
// `txir_sitegen --report`.
//
// Every experiment is a list of cells, all measured by one function rep by
// rep, in an order shuffled from --seed. Each printer computes its
// table from the measured rows and, with --json, saves them as a
// BENCH_*.json record through one writer. Every record has the one schema
// scripts/bench_gate.py compares:
//
//   {"experiment": E, "scale": S, "reps": N, "seed": X,
//    "rows": [{"app": A, "config": C, "threads": T,
//              "samples": [seconds of every rep, in run order],
//              "counters": {last rep's nonzero TxStats counters}}, ...]}
//
// A row is keyed by (app, config, threads). Derived numbers (improvement %,
// overhead %, ops/s, capture-hit %, abort ratio, RSD) are not stored: the tables and the
// comparator compute them from samples and counters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stamp/app.hpp"
#include "stm/config.hpp"
#include "stm/stats.hpp"

namespace cstm::harness {

struct Options {
  double scale = 0.25;  // CI-sized by default; --scale 1 approaches paper-size
  int reps = 3;
  int threads = 16;     // the paper's maximum thread count
  std::uint64_t seed = 20090811;
  std::size_t batch = 0;  // --batch N: txbatch merge factor (0 = sweep 1/4/16/64)
  std::string json;     // when set: also write machine-readable results here
  /// --apps a,b: the STAMP apps the per-app experiments run, each checked
  /// against stamp::app_names() at parse time. Empty = every app.
  std::vector<std::string> apps;
};

/// Parses --scale/--reps/--threads/--seed/--batch/--apps/--json; unknown
/// flags, unknown app names and malformed or out-of-range numbers (a scale
/// that is not finite and above 0, reps or threads below 1) exit 2 with a
/// message naming the flag.
Options parse_options(int argc, char** argv);

struct RunResult {
  double seconds = 0.0;
  TxStats stats;
};

/// One complete benchmark execution under @p cfg. Installs the config,
/// resets statistics, runs, and collects the stats snapshot. @p batch 0 runs
/// the app's workers (stamp::run_app); batch > 0 replays its request stream
/// through txbatch at that merge factor (stamp::run_app_stream). The
/// printers below reach it only through their cells; it is public for the
/// STAMP app tests.
RunResult run_once(const std::string& app, int threads, const TxConfig& cfg,
                   const Options& opt, std::size_t batch = 0);

// -- Experiment printers (paper Section 4) -----------------------------------

void fig8_breakdown(const Options& opt);        // Figure 8 (a, b, c)
void fig9_removed(const Options& opt);          // Figure 9 (a, b)
void fig10_single_thread(const Options& opt);   // Figure 10
void fig11a_configs(const Options& opt);        // Figure 11 (a)
/// Thread-count sweep (1,2,4,...,opt.threads) of the fig11 contenders,
/// printing median seconds per app x config x thread count (the
/// BENCH_scaling.json record a multi-core box will commit).
void fig11a_scaling(const Options& opt);
void fig11b_structures(const Options& opt);     // Figure 11 (b)
/// Tables 1 and 2 from one set of cells: the five configurations (baseline,
/// tree, array, filtering, compiler) at opt.threads, at least 5 reps each.
/// Table 1 is each row's abort-to-commit ratio, Table 2 the percent
/// relative standard deviation of its samples.
void tables(const Options& opt);

/// txbatch throughput-vs-merge-factor sweep: replays the vacation-low and
/// intruder request streams through txbatch::Batcher at batch sizes
/// {1, 4, 16, 64} (or just opt.batch when --batch is given) and prints
/// ops/s plus the capture-hit% and barriers-elided% that explain the curve.
void txbatch_stream(const Options& opt);

/// Durable mode across STAMP: seconds for the non-durable reference
/// (runtime stack+heap RW, filter log) vs the same config with durability
/// on vs capture-disabled durable (the flush-everything baseline), plus
/// the flushes-elided% and pwb/redo-entry counts that explain the gap. A
/// scratch DurableHeap backs the redo log so the flush traffic is real.
void durable_sweep(const Options& opt);

}  // namespace cstm::harness
