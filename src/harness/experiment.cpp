#include "harness/experiment.hpp"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <utility>

#include "durable/durable_heap.hpp"
#include "stm/stm.hpp"

namespace cstm::harness {

namespace {

/// Splits the --apps list at commas, exiting 2 with the valid names on an
/// empty or unknown one.
std::vector<std::string> parse_apps(const std::string& list) {
  const std::vector<std::string>& valid = stamp::app_names();
  std::vector<std::string> apps;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t comma = list.find(',', pos);
    std::string name = list.substr(pos, comma - pos);
    if (std::find(valid.begin(), valid.end(), name) == valid.end()) {
      std::fprintf(stderr, "--apps: unknown app '%s'; valid apps:",
                   name.c_str());
      for (const std::string& v : valid) std::fprintf(stderr, " %s", v.c_str());
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
    apps.push_back(std::move(name));
    if (comma == std::string::npos) return apps;
    pos = comma + 1;
  }
}

/// Parses a numeric flag's whole value as an integer in [lo, hi], exiting 2
/// with a message naming the flag on anything else ("2x", "-1", "").
std::uint64_t parse_uint(const char* flag, const char* text, std::uint64_t lo,
                         std::uint64_t hi) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
      errno == ERANGE || v < lo || v > hi) {
    std::fprintf(stderr, "%s wants a whole number in [%llu, %llu], got '%s'\n",
                 flag, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi), text);
    std::exit(2);
  }
  return v;
}

/// Parses --scale: a finite number above 0 (every app sizes its input as
/// scale times a base count, so 0 would run empty inputs and a negative
/// scale would be cast to size_t).
double parse_scale(const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v <= 0) {
    std::fprintf(stderr, "--scale wants a finite number > 0, got '%s'\n", text);
    std::exit(2);
  }
  return v;
}

}  // namespace

Options parse_options(int argc, char** argv) {
  constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();
  Options opt;
  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--scale") == 0) {
      opt.scale = parse_scale(need_value("--scale"));
    } else if (std::strcmp(argv[i], "--reps") == 0) {
      opt.reps = static_cast<int>(
          parse_uint("--reps", need_value("--reps"), 1, kIntMax));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      opt.threads = static_cast<int>(
          parse_uint("--threads", need_value("--threads"), 1, kIntMax));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      opt.seed = parse_uint("--seed", need_value("--seed"), 0,
                            std::numeric_limits<std::uint64_t>::max());
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      opt.batch = static_cast<std::size_t>(
          parse_uint("--batch", need_value("--batch"), 0,
                     std::numeric_limits<std::size_t>::max()));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opt.json = need_value("--json");
    } else if (std::strcmp(argv[i], "--apps") == 0) {
      opt.apps = parse_apps(need_value("--apps"));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      // ctest bit-rot gate: exercise every code path in seconds, not minutes.
      opt.scale = 0.01;
      opt.reps = 1;
      opt.threads = 2;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--scale S] [--reps N] [--threads T] [--seed X] "
                   "[--batch B] [--apps A,B] [--json FILE] [--smoke]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return opt;
}

RunResult run_once(const std::string& app, int threads, const TxConfig& cfg,
                   const Options& opt, std::size_t batch) {
  set_global_config(cfg);
  auto instance = stamp::make_app(app);
  stamp::AppParams params;
  params.threads = threads;
  params.seed = opt.seed;
  params.scale = opt.scale;
  stats_reset();
  RunResult result;
  result.seconds = batch == 0
                       ? stamp::run_app(*instance, params)
                       : stamp::run_app_stream(*instance, params, batch);
  result.stats = stats_snapshot();
  set_global_config(TxConfig::baseline());
  return result;
}

namespace {

/// The apps a per-app experiment runs: every STAMP app, or the --apps
/// selection, in stamp::app_names() order.
std::vector<std::string> selected_apps(const Options& opt) {
  std::vector<std::string> apps;
  for (const std::string& app : stamp::app_names()) {
    if (opt.apps.empty() ||
        std::find(opt.apps.begin(), opt.apps.end(), app) != opt.apps.end()) {
      apps.push_back(app);
    }
  }
  return apps;
}

/// One measured cell: @p app under @p cfg at @p threads (and @p batch, as in
/// run_once). @p config is the record label; a swept value other than the
/// thread count goes into it (txbatch's "batch-16").
struct Cell {
  std::string app;
  std::string config;
  TxConfig cfg;
  int threads = 1;
  std::size_t batch = 0;
};

struct Row {
  Cell cell;
  std::vector<double> samples;  // seconds of every rep, in run order
  TxStats counters;             // the last rep's statistics

  double median() const {
    std::vector<double> s = samples;
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    return n % 2 == 1 ? s[n / 2] : (s[n / 2 - 1] + s[n / 2]) / 2.0;
  }

  /// Sample standard deviation (n - 1) as a percent of the mean.
  double rsd_percent() const {
    if (samples.size() < 2) return 0.0;
    const double n = static_cast<double>(samples.size());
    const double mean =
        std::accumulate(samples.begin(), samples.end(), 0.0) / n;
    if (mean == 0.0) return 0.0;
    double ss = 0.0;
    for (const double x : samples) ss += (x - mean) * (x - mean);
    return 100.0 * std::sqrt(ss / (n - 1.0)) / mean;
  }
};

/// Runs every cell opt.reps times, rep by rep: each rep runs every cell once,
/// in an order shuffled from opt.seed, so drift spreads over all cells
/// instead of landing on whichever ran last. Returns one row per cell, in
/// @p cells order.
std::vector<Row> run_cells(const std::vector<Cell>& cells, const Options& opt) {
  std::vector<Row> rows;
  rows.reserve(cells.size());
  for (const Cell& c : cells) rows.push_back(Row{c, {}, {}});
  std::vector<std::size_t> order(cells.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::mt19937_64 rng(opt.seed);
  for (int r = 0; r < opt.reps; ++r) {
    std::shuffle(order.begin(), order.end(), rng);
    for (const std::size_t i : order) {
      const Cell& c = cells[i];
      const RunResult res = run_once(c.app, c.threads, c.cfg, opt, c.batch);
      rows[i].samples.push_back(res.seconds);
      rows[i].counters = res.stats;
    }
  }
  return rows;
}

/// Writes @p rows as the @p experiment record (schema in experiment.hpp) to
/// @p path via path.tmp and a rename, so an interrupted run never leaves a
/// truncated record. Exits the process if the file cannot be written.
void write_record(const std::string& path, const char* experiment,
                  const Options& opt, const std::vector<Row>& rows) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", tmp.c_str());
    std::exit(1);
  }
  std::fprintf(f,
               "{\n  \"experiment\": \"%s\",\n  \"scale\": %g,\n"
               "  \"reps\": %d,\n  \"seed\": %llu,\n  \"rows\": [",
               experiment, opt.scale, opt.reps,
               static_cast<unsigned long long>(opt.seed));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(f,
                 "%s\n    {\"app\": \"%s\", \"config\": \"%s\", "
                 "\"threads\": %d, \"samples\": [",
                 i == 0 ? "" : ",", row.cell.app.c_str(),
                 row.cell.config.c_str(), row.cell.threads);
    for (std::size_t r = 0; r < row.samples.size(); ++r) {
      std::fprintf(f, "%s%.9f", r == 0 ? "" : ", ", row.samples[r]);
    }
    std::fprintf(f, "], \"counters\": {");
    const char* sep = "";
    row.counters.for_each_counter([&](const char* name, std::uint64_t value) {
      if (value == 0) return;
      std::fprintf(f, "%s\"%s\": %llu", sep, name,
                   static_cast<unsigned long long>(value));
      sep = ", ";
    });
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n  ]\n}\n");
  const bool written = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !written ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::remove(tmp.c_str());
    std::exit(1);
  }
  std::printf("# wrote %s\n", path.c_str());
}

double pct(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) /
                                static_cast<double>(whole);
}

/// Runs @p cells and, when --json is given, records them as @p experiment.
std::vector<Row> measure(const char* experiment, const std::vector<Cell>& cells,
                         const Options& opt) {
  std::vector<Row> rows = run_cells(cells, opt);
  if (!opt.json.empty()) write_record(opt.json, experiment, opt, rows);
  return rows;
}

const Row& find_row(const std::vector<Row>& rows, const std::string& app,
                    const std::string& config, int threads) {
  for (const Row& r : rows) {
    if (r.cell.app == app && r.cell.config == config &&
        r.cell.threads == threads) {
      return r;
    }
  }
  std::fprintf(stderr, "no row %s/%s@%d\n", app.c_str(), config.c_str(),
               threads);
  std::abort();
}

/// The barrier-removal techniques of Figure 9 and Tables 1-2, in paper
/// order: the three runtime stack+heap R+W logs and the compiler analysis.
std::vector<std::pair<std::string, TxConfig>> removal_techniques() {
  return {
      {"tree", TxConfig::runtime_rw(AllocLogKind::kTree)},
      {"array", TxConfig::runtime_rw(AllocLogKind::kArray)},
      {"filtering", TxConfig::runtime_rw(AllocLogKind::kFilter)},
      {"compiler", TxConfig::compiler()},
  };
}

/// Measures every app under "baseline" and each of @p configs at @p threads
/// and prints the app x config improvement-over-baseline table.
void speedup_table(
    const char* experiment, const Options& opt, int threads,
    const std::vector<std::pair<std::string, TxConfig>>& configs) {
  std::vector<Cell> cells;
  for (const auto& app : selected_apps(opt)) {
    cells.push_back({app, "baseline", TxConfig::baseline(), threads});
    for (const auto& [name, cfg] : configs) {
      cells.push_back({app, name, cfg, threads});
    }
  }
  const std::vector<Row> rows = measure(experiment, cells, opt);
  std::printf("%-15s", "app");
  for (const auto& [name, cfg] : configs) std::printf(" %14s", name.c_str());
  std::printf("\n");
  for (const auto& app : selected_apps(opt)) {
    const Row& base = find_row(rows, app, "baseline", threads);
    std::printf("%-15s", app.c_str());
    for (const auto& [name, cfg] : configs) {
      const Row& row = find_row(rows, app, name, threads);
      std::printf(" %13.1f%%", (base.median() / row.median() - 1.0) * 100.0);
    }
    std::printf("  (baseline %.4fs)\n", base.median());
  }
}

}  // namespace

void fig8_breakdown(const Options& opt) {
  std::vector<Cell> cells;
  for (const auto& app : selected_apps(opt)) {
    cells.push_back({app, "counting", TxConfig::counting(), 1});
  }
  const std::vector<Row> rows = measure("fig8", cells, opt);
  std::printf("# Figure 8: breakdown of compiler-inserted STM barriers (1 thread)\n");
  std::printf("# categories: captured-heap / captured-stack / not-required-other / required\n");
  std::printf("%-15s %10s %8s %8s %8s %8s   %10s %8s %8s %8s %8s\n", "app",
              "reads", "heap%", "stack%", "other%", "req%", "writes", "heap%",
              "stack%", "other%", "req%");
  TxStats all_sum;
  for (const Row& row : rows) {
    const TxStats& s = row.counters;
    std::printf("%-15s %10llu %8.1f %8.1f %8.1f %8.1f   %10llu %8.1f %8.1f %8.1f %8.1f\n",
                row.cell.app.c_str(),
                static_cast<unsigned long long>(s.reads),
                pct(s.read_cap_heap, s.reads), pct(s.read_cap_stack, s.reads),
                pct(s.read_not_required, s.reads), pct(s.read_required, s.reads),
                static_cast<unsigned long long>(s.writes),
                pct(s.write_cap_heap, s.writes), pct(s.write_cap_stack, s.writes),
                pct(s.write_not_required, s.writes),
                pct(s.write_required, s.writes));
    all_sum.add(s);
  }
  const std::uint64_t accesses = all_sum.reads + all_sum.writes;
  std::printf("%-15s %10llu  combined: heap+stack %.1f%%, other %.1f%%, required %.1f%%\n",
              "ALL", static_cast<unsigned long long>(accesses),
              pct(all_sum.read_cap_heap + all_sum.read_cap_stack +
                      all_sum.write_cap_heap + all_sum.write_cap_stack,
                  accesses),
              pct(all_sum.read_not_required + all_sum.write_not_required, accesses),
              pct(all_sum.read_required + all_sum.write_required, accesses));
}

void fig9_removed(const Options& opt) {
  const std::vector<std::pair<std::string, TxConfig>> techniques =
      removal_techniques();
  std::vector<Cell> cells;
  for (const auto& app : selected_apps(opt)) {
    for (const auto& [name, cfg] : techniques) {
      cells.push_back({app, name, cfg, 1});
    }
  }
  const std::vector<Row> rows = measure("fig9", cells, opt);
  std::printf("# Figure 9: portion of barriers removed by each technique (1 thread)\n");
  std::printf("%-15s", "app");
  for (const auto& [name, cfg] : techniques) {
    std::printf(" %9s-R %9s-W", name.c_str(), name.c_str());
  }
  std::printf("\n");
  for (const auto& app : selected_apps(opt)) {
    std::printf("%-15s", app.c_str());
    for (const auto& [name, cfg] : techniques) {
      const TxStats& s = find_row(rows, app, name, 1).counters;
      std::printf(" %10.1f%% %10.1f%%", pct(s.read_elided(), s.reads),
                  pct(s.write_elided(), s.writes));
    }
    std::printf("\n");
  }
}

void fig10_single_thread(const Options& opt) {
  std::printf("# Figure 10: performance improvement over baseline at 1 thread\n");
  std::printf("# positive = faster than baseline, negative = runtime-check overhead\n");
  speedup_table("fig10", opt, 1,
                {{"rt-stack+heap-RW", TxConfig::runtime_rw()},
                 {"rt-stack+heap-W", TxConfig::runtime_w()},
                 {"rt-heap-W", TxConfig::runtime_heap_w(AllocLogKind::kTree)},
                 {"compiler", TxConfig::compiler()}});
}

void fig11a_configs(const Options& opt) {
  std::printf("# Figure 11(a): improvement over baseline at %d threads (runtime tree configs + compiler)\n",
              opt.threads);
  speedup_table("fig11a", opt, opt.threads,
                {{"rt-stack+heap-RW", TxConfig::runtime_rw()},
                 {"rt-stack+heap-W", TxConfig::runtime_w()},
                 {"rt-heap-W", TxConfig::runtime_heap_w(AllocLogKind::kTree)},
                 {"compiler", TxConfig::compiler()}});
}

void fig11a_scaling(const Options& opt) {
  // Thread-count sweep for the fig11 contenders: median seconds (not
  // improvement) per app x config x thread count, so a multi-core box can
  // record BENCH_scaling.json and the gate can compare shapes, not just
  // endpoints. On a 1-core box every "scaling" curve is flat-to-degrading
  // under oversubscription.
  std::vector<int> counts;
  for (int t = 1; t <= opt.threads; t *= 2) counts.push_back(t);
  if (counts.empty() || counts.back() != opt.threads) {
    counts.push_back(opt.threads);
  }
  const std::vector<std::pair<std::string, TxConfig>> configs = {
      {"baseline", TxConfig::baseline()},
      {"rt-heap-W", TxConfig::runtime_heap_w(AllocLogKind::kTree)},
      {"compiler", TxConfig::compiler()},
  };
  std::vector<Cell> cells;
  for (const auto& app : selected_apps(opt)) {
    for (const auto& [name, cfg] : configs) {
      for (int t : counts) cells.push_back({app, name, cfg, t});
    }
  }
  const std::vector<Row> rows = measure("scaling", cells, opt);
  std::printf("# Scaling sweep: median seconds per app/config across thread counts\n");
  std::printf("%-15s %-12s", "app", "config");
  for (int t : counts) std::printf(" %8dT", t);
  std::printf("\n");
  for (const auto& app : selected_apps(opt)) {
    for (const auto& [name, cfg] : configs) {
      std::printf("%-15s %-12s", app.c_str(), name.c_str());
      for (int t : counts) {
        std::printf(" %8.4fs", find_row(rows, app, name, t).median());
      }
      std::printf("\n");
    }
  }
}

void fig11b_structures(const Options& opt) {
  std::printf("# Figure 11(b): improvement over baseline at %d threads\n", opt.threads);
  std::printf("# runtime checks: write barriers only, transaction-local heap only\n");
  speedup_table("fig11b", opt, opt.threads,
                {{"tree", TxConfig::runtime_heap_w(AllocLogKind::kTree)},
                 {"array", TxConfig::runtime_heap_w(AllocLogKind::kArray)},
                 {"filter", TxConfig::runtime_heap_w(AllocLogKind::kFilter)},
                 {"compiler", TxConfig::compiler()}});
}

void tables(const Options& opt) {
  Options o = opt;
  o.reps = std::max(opt.reps, 5);  // Table 2's deviation is over 5 runs
  std::vector<std::pair<std::string, TxConfig>> configs = removal_techniques();
  configs.insert(configs.begin(), {"baseline", TxConfig::baseline()});
  std::vector<Cell> cells;
  for (const auto& app : selected_apps(o)) {
    for (const auto& [name, cfg] : configs) {
      cells.push_back({app, name, cfg, o.threads});
    }
  }
  const std::vector<Row> rows = measure("tables", cells, o);
  // Prints one app x config table of value(row).
  auto table = [&](double (*value)(const Row&)) {
    std::printf("%-15s", "app");
    for (const auto& [name, cfg] : configs) std::printf(" %10s", name.c_str());
    std::printf("\n");
    for (const auto& app : selected_apps(o)) {
      std::printf("%-15s", app.c_str());
      for (const auto& [name, cfg] : configs) {
        std::printf(" %10.2f", value(find_row(rows, app, name, o.threads)));
      }
      std::printf("\n");
    }
  };
  std::printf("# Table 1: abort-to-commit ratio at %d threads\n", o.threads);
  table([](const Row& r) { return r.counters.abort_to_commit_ratio(); });
  std::printf("# Table 2: percent relative standard deviation over %d runs "
              "at %d threads\n",
              o.reps, o.threads);
  table([](const Row& r) { return r.rsd_percent(); });
}

void txbatch_stream(const Options& opt) {
  // The merge layer's one job: make a larger fraction of each transaction's
  // footprint CAPTURED. Run under the runtime stack+heap config with the
  // O(1)-miss filter log: most accesses in any real stream are capture
  // MISSES, and a log whose miss cost grows with the merged footprint (the
  // tree) would charge the batch for its own size, burying the fixed-cost
  // amortization this experiment exists to show. (The bounded array log is
  // out too — it overflows outright at batch 64.)
  const TxConfig cfg = TxConfig::runtime_rw(AllocLogKind::kFilter);
  std::vector<std::size_t> batches;
  if (opt.batch > 0) {
    batches.push_back(opt.batch);
  } else {
    batches = {1, 4, 16, 64};
  }
  std::vector<Cell> cells;
  for (const std::string app : {"vacation-low", "intruder"}) {
    for (const std::size_t batch : batches) {
      cells.push_back(
          {app, "batch-" + std::to_string(batch), cfg, opt.threads, batch});
    }
  }
  const std::vector<Row> rows = measure("txbatch", cells, opt);

  std::printf("# txbatch: request-stream throughput vs merge factor "
              "(%d thread%s, runtime stack+heap RW, filter log)\n",
              opt.threads, opt.threads == 1 ? "" : "s");
  std::printf("# ops = requests run by the merged transactions; capture-hit%% "
              "= accesses hitting captured (tx-local stack/heap) memory; "
              "elided%% = any elision mechanism; ovf%% = allocations dropped "
              "by a full array log\n");
  std::printf("%-15s %6s %10s %12s %12s %9s %10s %6s %8s %9s %7s\n", "app",
              "batch", "seconds", "ops", "ops/s", "cap-hit%", "elided%",
              "ovf%", "commits", "flushes", "comp");
  for (const Row& row : rows) {
    const TxStats& s = row.counters;
    const double secs = row.median();
    std::printf("%-15s %6zu %10.4f %12llu %12.0f %9.1f %10.1f %6.1f %8llu %9llu %7llu\n",
                row.cell.app.c_str(), row.cell.batch, secs,
                static_cast<unsigned long long>(s.batch_ops),
                static_cast<double>(s.batch_ops) / secs,
                s.capture_hit_percent(), s.elided_percent(),
                s.capture_overflow_percent(),
                static_cast<unsigned long long>(s.commits),
                static_cast<unsigned long long>(s.batch_flushes),
                static_cast<unsigned long long>(s.batch_op_compensations));
  }
}

void durable_sweep(const Options& opt) {
  // Durability cost and what capture elision buys back. Three cells per
  // app: the non-durable reference (runtime stack+heap RW, filter log —
  // the txbatch_stream config), the same config made durable, and durable
  // with capture disabled (every instrumented store redo-logged and
  // flushed). A scratch heap file backs the log so commits pay real
  // serialization + write-back; STAMP's data stays volatile, so entries
  // are flush-accounted but never replayed.
  const TxConfig ref = TxConfig::runtime_rw(AllocLogKind::kFilter);
  std::vector<Cell> cells;
  for (const auto& app : selected_apps(opt)) {
    cells.push_back({app, "nondurable", ref, opt.threads});
    cells.push_back({app, "durable", ref.with_durable(), opt.threads});
    cells.push_back({app, "durable-nocapture", TxConfig::durable_baseline(),
                     opt.threads});
  }

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string heap_path = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                                "/cstm_bench_durable_" +
                                std::to_string(::getpid()) + ".heap";
  std::remove(heap_path.c_str());
  dur::DurableHeap heap;
  if (!heap.open(heap_path)) {
    std::fprintf(stderr, "cannot open scratch durable heap %s\n",
                 heap_path.c_str());
    std::exit(1);
  }
  heap.activate();
  const std::vector<Row> rows = measure("durable", cells, opt);
  heap.deactivate();
  heap.close();
  std::remove(heap_path.c_str());

  std::printf("# Durable mode: overhead vs non-durable and flush elision "
              "(%d thread%s, runtime stack+heap RW, filter log)\n",
              opt.threads, opt.threads == 1 ? "" : "s");
  std::printf("# flush-elided%% = captured stores that skipped redo "
              "logging+flushing; nocap = durable with capture disabled\n");
  std::printf("%-15s %10s %10s %8s %10s %8s %9s %10s %10s %10s\n", "app",
              "ref-s", "dur-s", "ovh%", "nocap-s", "ovh%", "elided%", "pwbs",
              "nocap-pwb", "logged");
  for (const auto& app : selected_apps(opt)) {
    const Row& base = find_row(rows, app, "nondurable", opt.threads);
    const Row& cap = find_row(rows, app, "durable", opt.threads);
    const Row& nocap = find_row(rows, app, "durable-nocapture", opt.threads);
    std::printf(
        "%-15s %10.4f %10.4f %7.1f%% %10.4f %7.1f%% %8.1f%% %10llu %10llu "
        "%10llu\n",
        app.c_str(), base.median(), cap.median(),
        (cap.median() / base.median() - 1.0) * 100.0, nocap.median(),
        (nocap.median() / base.median() - 1.0) * 100.0,
        cap.counters.flushes_elided_percent(),
        static_cast<unsigned long long>(cap.counters.durable_pwbs),
        static_cast<unsigned long long>(nocap.counters.durable_pwbs),
        static_cast<unsigned long long>(cap.counters.durable_stores_logged));
  }
}

}  // namespace cstm::harness
