// capbench: runs one workload of the repository benchmark and prints what
// it measured as one JSON object on the last line of standard output.
// benchmark/run.sh builds this binary and drives it.
//
//   capbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--passes N] [--probe-reps N] [--out-dir DIR]
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "durable/durable_heap.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace {

using capbench::Metrics;

struct Args {
  std::string workload;
  capbench::RunOptions run;
  int probe_reps = 15;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "capbench: %s\nusage: capbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--passes N] [--probe-reps N] "
               "[--out-dir DIR]\nworkloads:",
               msg);
  for (const auto& w : capbench::workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

/// @p text as a number in [0, max]; anything else is a usage error.
double number(const char* flag, const char* text, double max) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v >= 0 && v <= max)) {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  a.run.out_dir = "benchmark/out";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      char* end = nullptr;
      a.run.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage("bad value for --seed");
    } else if (flag == "--seconds") {
      a.run.seconds = number("--seconds", v, 3600);
    } else if (flag == "--trace") {
      a.run.trace = number("--trace", v, 1) != 0.0;
    } else if (flag == "--passes") {
      a.run.passes = static_cast<int>(number("--passes", v, 1e6));
    } else if (flag == "--probe-reps") {
      a.probe_reps = static_cast<int>(number("--probe-reps", v, 1e4));
    } else if (flag == "--out-dir") {
      a.run.out_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.probe_reps < 1) usage("--probe-reps must be at least 1");
  return a;
}

/// Pins the process to the last @p n CPUs it may run on (CPU 0 takes the
/// most interrupts); threads started later inherit the mask.
std::vector<int> pin(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (static_cast<int>(cpus.size()) > n) {
    cpus.erase(cpus.begin(), cpus.end() - n);
  }
  cpu_set_t want;
  CPU_ZERO(&want);
  for (int c : cpus) CPU_SET(c, &want);
  if (sched_setaffinity(0, sizeof(want), &want) != 0) cpus.clear();
  return cpus;
}

/// A DurableHeap file in the output directory, active for the whole run
/// and removed at exit.
class ScratchHeap {
 public:
  explicit ScratchHeap(std::string path) : path_(std::move(path)) {
    std::remove(path_.c_str());
    cstm::dur::HeapOptions opts;
    opts.data_bytes = std::size_t{16} << 20;
    ok_ = heap_.open(path_, opts);
    if (ok_) heap_.activate();
  }
  ~ScratchHeap() {
    heap_.close();
    std::remove(path_.c_str());
  }
  ScratchHeap(const ScratchHeap&) = delete;
  ScratchHeap& operator=(const ScratchHeap&) = delete;

  bool ok() const { return ok_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  cstm::dur::DurableHeap heap_;
  bool ok_ = false;
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void print_metrics(const char* key, const Metrics& m) {
  std::printf(", %s: {", json_string(key).c_str());
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s%s: {\"value\": ", first ? "" : ", ",
                json_string(name).c_str());
    if (std::isfinite(metric.value)) {
      std::printf("%.17g", metric.value);
    } else {
      std::printf("null");
    }
    std::printf(", \"unit\": %s, \"samples\": %zu}",
                json_string(metric.unit).c_str(), metric.samples);
    first = false;
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const capbench::Workload* w = capbench::find_workload(args.workload);
  if (w == nullptr) usage(("unknown workload " + args.workload).c_str());
  const std::vector<int> cpus = pin(w->threads);

  std::error_code ec;
  std::filesystem::create_directories(args.run.out_dir, ec);
  std::optional<ScratchHeap> heap;
  if (w->cfg.durable || args.run.trace) {
    heap.emplace(args.run.out_dir + "/durable-" + w->name + "-" +
                 std::to_string(::getpid()) + ".heap");
    if (!heap->ok()) {
      std::fprintf(stderr, "capbench: cannot open %s\n", heap->path().c_str());
      return 1;
    }
  }

  Metrics probes;
  if (args.run.trace) probes = capbench::run_probes(args.probe_reps);
  capbench::RunResult r = capbench::run_workload(*w, args.run, probes);
  r.metrics.insert(probes.begin(), probes.end());

  std::printf("{\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
              "\"threads\": %d, \"affinity\": [",
              json_string(w->name).c_str(),
              static_cast<unsigned long long>(args.run.seed),
              args.run.trace ? 1 : 0, w->threads);
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    std::printf("%s%d", i == 0 ? "" : ", ", cpus[i]);
  }
  std::printf("], \"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"errors\": [",
              r.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ", ", json_string(r.errors[i]).c_str());
  }
  std::printf("]");
  print_metrics("metrics", r.metrics);
  print_metrics("spans", r.spans);
  std::printf("}\n");
  return r.errors.empty() ? 0 : 1;
}
