// Shared pieces of capbench, the repository benchmark: the clock, quantiles,
// the metric set a run reports, and the in-memory span recorder.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace capbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Quantile @p q in [0, 1] of the ascending @p sorted, interpolating
/// linearly between order statistics; 0 for an empty sample.
double sorted_quantile(const std::vector<double>& sorted, double q);

/// Quantile @p q of @p v in any order.
double quantile(std::vector<double> v, double q);

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // observations the value summarises
};

/// Every metric a run reports, by name.
using Metrics = std::map<std::string, Metric>;

/// Spans recorded around the benchmark's calls into the library. The spans
/// of the pass in progress stay in memory; end_pass() folds them into self
/// times per span name and keeps the first passes' spans for the file.
class Trace {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;  // index among the pass's spans, -1 for a root
    std::uint32_t pass = 0;
    bool flushed = false;      // txbatch.enqueue only: the call ran a flush
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit Trace(std::uint32_t kept_passes) : kept_passes_(kept_passes) {}

  std::uint32_t intern(const std::string& name);

  /// Adds a span whose end is set later by close(); returns its index.
  std::int32_t open(std::uint32_t name, std::int32_t parent,
                    std::uint32_t pass);
  void close(std::int32_t span) { spans_[span].end_ns = now_ns(); }

  /// Adds a span timed by the caller; returns its index.
  std::int32_t add(std::uint32_t name, std::int32_t parent, std::uint32_t pass,
                   std::int64_t start_ns, std::int64_t end_ns,
                   bool flushed = false);

  /// Folds the pass's spans into self_us(). A span's self time is its
  /// duration minus the part of its interval its children cover. Flushing
  /// enqueues count under "<name>.flushed".
  void end_pass();

  const std::vector<std::string>& names() const { return names_; }
  /// Self times in us, indexed by interned name.
  const std::vector<std::vector<float>>& self_us() const { return self_us_; }

  /// Writes the kept spans as JSON.
  bool write_json(const std::string& path, const std::string& workload) const;

 private:
  std::uint32_t kept_passes_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<Span> spans_;  // the pass in progress
  std::vector<Span> kept_;   // passes [0, kept_passes_), parents rebased
  std::vector<std::vector<float>> self_us_;
};

}  // namespace capbench
