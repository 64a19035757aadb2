#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <barrier>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "stamp/app.hpp"
#include "stm/stm.hpp"

namespace capbench {

using cstm::AllocLogKind;
using cstm::TxConfig;
using cstm::TxStats;

// Why each workload exists is recorded in BENCHMARK.json and README.md.
// labyrinth and ssca2 are left out (they do almost no transactional work),
// and so is kmeans-low (kmeans-high's barrier profile again).
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"rw-readmiss", TxConfig::runtime_rw(),
       {"vacation-high", "vacation-low", "kmeans-high"}, 1.0, 1},
      {"rw-capture", TxConfig::runtime_rw(),
       {"bayes", "genome", "intruder", "yada"}, 2.0, 1},
      {"compiler-4t", TxConfig::compiler(),
       {"vacation-low", "kmeans-high", "intruder", "genome"}, 4.0, 4},
      {"durable-stream",
       TxConfig::runtime_rw(AllocLogKind::kFilter).with_durable(),
       {"vacation-low"}, 2.0, 1, 16, 16384},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

constexpr int kWarmupPasses = 2;
constexpr int kMinPasses = 5;  // per section, whatever the time budget
// A timed pass shorter than this measured nothing real.
constexpr double kMinTimedPassS = 1e-3;
constexpr std::uint32_t kTracePassesWritten = 4;

struct Pass {
  double timed_s = 0.0;  // the apps' timed regions, or the replay
  double setup_s = 0.0;  // summed App::setup
  std::uint64_t ops = 0;  // committed transactions, or replayed requests
  std::uint64_t failed_ops = 0;
  TxStats stats;  // counters of the timed regions
  // Quantiles of the latency of what one client waits for in this pass:
  // an app's timed region (STAMP mixes) or a request (stream workloads).
  double lat_p50_us = 0.0, lat_p90_us = 0.0, lat_p99_us = 0.0;
  std::size_t lat_samples = 0;

  void summarise_latency(std::vector<double> us) {
    std::sort(us.begin(), us.end());
    lat_p50_us = sorted_quantile(us, 0.5);
    lat_p90_us = sorted_quantile(us, 0.9);
    lat_p99_us = sorted_quantile(us, 0.99);
    lat_samples = us.size();
  }
};

using Section = std::vector<Pass>;

class PassRunner {
 public:
  PassRunner(const Workload& w, const RunOptions& opt, RunResult& out)
      : w_(w), out_(out) {
    params_.threads = w.threads;
    params_.seed = opt.seed;
    params_.scale = w.scale;
  }

  void pass(Section& sec, Trace* tr, std::uint32_t id) {
    Pass p = w_.batch > 0 ? stream_pass(tr, id) : stamp_pass(tr, id);
    if (p.timed_s < kMinTimedPassS) fail("a timed pass took under 1 ms");
    if (p.stats.commits == 0) fail("a pass committed no transaction");
    if (tr != nullptr) tr->end_pass();
    sec.push_back(p);
  }

 private:
  void fail(const std::string& msg) {
    auto& e = out_.errors;
    if (std::find(e.begin(), e.end(), msg) == e.end()) e.push_back(msg);
  }

  // Fresh setup, the timed parallel region and verify, per app of the mix;
  // the same steps as stamp::run_app, with spans around each.
  Pass stamp_pass(Trace* tr, std::uint32_t id) {
    Pass p;
    bool verified = true;
    std::vector<double> app_us;
    const std::int32_t root = tr ? tr->open(tr->intern("pass"), -1, id) : -1;
    const int n = params_.threads;
    for (const std::string& name : w_.apps) {
      std::unique_ptr<cstm::stamp::App> app = cstm::stamp::make_app(name);
      const std::int64_t s0 = now_ns();
      app->setup(params_);
      const std::int64_t s1 = now_ns();
      p.setup_s += static_cast<double>(s1 - s0) * 1e-9;

      std::vector<std::pair<std::int64_t, std::int64_t>> thread_ns(n);
      cstm::stats_reset();
      std::barrier sync(n + 1);
      std::vector<std::thread> threads;
      threads.reserve(static_cast<std::size_t>(n));
      for (int tid = 0; tid < n; ++tid) {
        threads.emplace_back([&, tid] {
          sync.arrive_and_wait();
          const std::int64_t b = now_ns();
          app->worker(tid);
          thread_ns[tid] = {b, now_ns()};
          sync.arrive_and_wait();
        });
      }
      sync.arrive_and_wait();
      const std::int64_t t0 = now_ns();
      sync.arrive_and_wait();
      const std::int64_t t1 = now_ns();
      for (auto& t : threads) t.join();
      const TxStats stats = cstm::stats_snapshot();

      const std::int64_t v0 = now_ns();
      const bool ok = app->verify();
      const std::int64_t v1 = now_ns();
      if (!ok) {
        verified = false;
        fail(name + " failed verify()");
      }
      if (tr != nullptr) {
        tr->add(tr->intern("stamp.setup." + name), root, id, s0, s1);
        const std::uint32_t worker = tr->intern("stamp.worker." + name);
        for (const auto& [b, e] : thread_ns) tr->add(worker, root, id, b, e);
        tr->add(tr->intern("stamp.verify." + name), root, id, v0, v1);
      }
      const double secs = static_cast<double>(t1 - t0) * 1e-9;
      p.timed_s += secs;
      p.ops += stats.commits;
      p.stats.add(stats);
      app_us.push_back(secs * 1e6);
    }
    if (tr != nullptr) tr->close(root);
    p.summarise_latency(std::move(app_us));
    if (!verified) p.failed_ops = p.ops;
    return p;
  }

  // One replay of apps[0]'s request stream through a Batcher, one client,
  // closed loop. A request's latency runs from its enqueue to the return of
  // the flush that committed it.
  Pass stream_pass(Trace* tr, std::uint32_t id) {
    namespace tb = cstm::txbatch;
    Pass p;
    const std::string& name = w_.apps.front();
    const std::int32_t root = tr ? tr->open(tr->intern("pass"), -1, id) : -1;
    std::unique_ptr<cstm::stamp::App> app = cstm::stamp::make_app(name);
    const std::int64_t s0 = now_ns();
    app->setup(params_);
    const std::int64_t s1 = now_ns();
    p.setup_s = static_cast<double>(s1 - s0) * 1e-9;
    if (tr != nullptr) tr->add(tr->intern("stamp.setup." + name), root, id, s0, s1);

    std::unique_ptr<cstm::stamp::RequestSource> source =
        app->open_request_stream(0);
    if (source == nullptr) {
      fail(name + " has no request stream");
      if (tr != nullptr) tr->close(root);
      return p;
    }
    tb::BatcherOptions opts;
    opts.max_batch = w_.batch;
    tb::Batcher batcher(opts);
    struct Waiting {
      std::int64_t enqueued_ns;
      tb::Completion done;
    };
    std::deque<Waiting> waiting;
    std::vector<double> lat_us;
    lat_us.reserve(w_.requests_per_pass);
    // Ops run in enqueue order, so the settled ones are a prefix.
    const auto settle = [&](std::int64_t t) {
      while (!waiting.empty() &&
             waiting.front().done.state() != tb::OpState::kPending) {
        lat_us.push_back(
            static_cast<double>(t - waiting.front().enqueued_ns) * 1e-3);
        if (!waiting.front().done.committed()) ++p.failed_ops;
        waiting.pop_front();
      }
    };
    std::uint32_t span_request = 0, span_next = 0, span_enqueue = 0;
    std::int32_t worker = -1;
    if (tr != nullptr) {
      span_request = tr->intern("request");
      span_next = tr->intern("stamp.source_next");
      span_enqueue = tr->intern("txbatch.enqueue");
      worker = tr->open(tr->intern("stamp.worker." + name), root, id);
    }

    cstm::stats_reset();
    const std::int64_t t0 = now_ns();
    std::uint64_t requests = 0;
    for (;;) {
      const std::int64_t r0 = now_ns();
      std::function<void(cstm::Tx&)> fn = source->next();
      const std::int64_t r1 = now_ns();
      if (!fn) break;
      waiting.push_back({r1, batcher.enqueue(std::move(fn))});
      const std::int64_t r2 = now_ns();
      const bool flushed =
          waiting.front().done.state() != tb::OpState::kPending;
      if (flushed) settle(r2);
      ++requests;
      if (tr != nullptr) {
        const std::int32_t req = tr->add(span_request, worker, id, r0, r2);
        tr->add(span_next, req, id, r0, r1);
        tr->add(span_enqueue, req, id, r1, r2, flushed);
      }
    }
    const std::int64_t d0 = now_ns();
    batcher.drain();
    const std::int64_t t1 = now_ns();
    settle(t1);
    const TxStats stats = cstm::stats_snapshot();
    if (tr != nullptr) {
      tr->add(tr->intern("txbatch.drain"), worker, id, d0, t1);
      tr->close(worker);
    }

    p.timed_s = static_cast<double>(t1 - t0) * 1e-9;
    p.ops = requests;
    p.stats = stats;
    p.summarise_latency(std::move(lat_us));
    if (!waiting.empty()) {
      fail("requests left unsettled after drain()");
      p.failed_ops += waiting.size();
    }
    if (requests != w_.requests_per_pass) {
      fail("a replay issued " + std::to_string(requests) + " requests, not " +
           std::to_string(w_.requests_per_pass));
    }
    const std::int64_t v0 = now_ns();
    const bool ok = app->verify();
    if (tr != nullptr) {
      tr->add(tr->intern("stamp.verify." + name), root, id, v0, now_ns());
      tr->close(root);
    }
    if (!ok) {
      fail(name + " failed verify()");
      p.failed_ops = p.ops;
    }
    return p;
  }

  const Workload& w_;
  RunResult& out_;
  cstm::stamp::AppParams params_;
};

// Runs passes until opt.seconds have gone by, or opt.passes per section.
// With a trace, passes alternate between the untraced and the traced
// section, so drift in the machine's speed hits both alike.
void run_passes(PassRunner& d, const RunOptions& opt, Section& plain,
                Section* traced, Trace* tr) {
  const std::size_t sections = traced != nullptr ? 2 : 1;
  const std::size_t min_passes =
      sections * (opt.passes > 0 ? static_cast<std::size_t>(opt.passes)
                                 : static_cast<std::size_t>(kMinPasses));
  const std::int64_t t0 = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(opt.seconds * 1e9);
  for (std::size_t i = 0;; ++i) {
    const bool done = opt.passes > 0
                          ? i >= min_passes
                          : i >= min_passes && now_ns() - t0 >= budget_ns;
    if (done) break;
    Section& sec = i % sections == 1 ? *traced : plain;
    d.pass(sec, &sec == traced ? tr : nullptr,
           static_cast<std::uint32_t>(sec.size()));
  }
}

double pct(double part, double whole) {
  return whole == 0.0 ? 0.0 : 100.0 * part / whole;
}

double ratio(double part, double whole) {
  return whole == 0.0 ? 0.0 : part / whole;
}

TxStats total(const Section& sec) {
  TxStats sum;
  for (const Pass& p : sec) sum.add(p.stats);
  return sum;
}

/// Median over the passes of @p field.
template <typename F>
double median_of(const Section& sec, F field) {
  std::vector<double> v;
  for (const Pass& p : sec) v.push_back(static_cast<double>(field(p)));
  return quantile(v, 0.5);
}

void end_to_end(const Section& sec, Metrics& m) {
  std::vector<double> timed;
  std::size_t lat_samples = 0;
  for (const Pass& p : sec) {
    timed.push_back(p.timed_s);
    lat_samples += p.lat_samples;
  }
  const std::size_t n = sec.size();
  m["pass_s_p50"] = {quantile(timed, 0.5), "s", n};
  m["pass_s_p90"] = {quantile(timed, 0.9), "s", n};
  m["ops_per_s"] = {
      median_of(sec, [](const Pass& p) { return p.ops / p.timed_s; }), "1/s", n};
  m["setup_s"] = {median_of(sec, [](const Pass& p) { return p.setup_s; }), "s",
                  n};
  // Latency quantiles are each pass's own, then the median over passes: a
  // burst of load on the machine moves a few passes, not the result.
  m["lat_p50_us"] = {median_of(sec, [](const Pass& p) { return p.lat_p50_us; }),
                     "us", lat_samples};
  m["lat_p90_us"] = {median_of(sec, [](const Pass& p) { return p.lat_p90_us; }),
                     "us", lat_samples};
  m["lat_p99_us"] = {median_of(sec, [](const Pass& p) { return p.lat_p99_us; }),
                     "us", lat_samples};
}

void layer_counts(const Section& sec, Metrics& m) {
  const std::size_t n = sec.size();
  const auto per_pass = [&](auto field) {
    std::vector<double> v;
    for (const Pass& p : sec) v.push_back(static_cast<double>(field(p.stats)));
    return v;
  };
  const auto count = [&](const char* name, auto field) {
    m[name] = {quantile(per_pass(field), 0.5), "count", n};
  };
  count("stm.commits_per_pass", [](const TxStats& s) { return s.commits; });
  count("stm.reads_per_pass", [](const TxStats& s) { return s.reads; });
  count("stm.writes_per_pass", [](const TxStats& s) { return s.writes; });
  count("stm.full_reads_per_pass",
        [](const TxStats& s) { return s.reads - s.read_elided(); });
  count("stm.full_writes_per_pass",
        [](const TxStats& s) { return s.writes - s.write_elided(); });
  count("stm.lazy_revalidations_per_pass",
        [](const TxStats& s) { return s.lazy_revalidations; });
  count("stm.clock_reservations_per_pass",
        [](const TxStats& s) { return s.clock_reservations; });
  count("txmalloc.allocs_per_pass", [](const TxStats& s) { return s.tx_allocs; });
  count("txmalloc.frees_per_pass", [](const TxStats& s) { return s.tx_frees; });
  count("txbatch.flushes_per_pass",
        [](const TxStats& s) { return s.batch_flushes; });
  count("txbatch.compensations_per_pass",
        [](const TxStats& s) { return s.batch_op_compensations; });

  // Reads per pass are not exact on the vacation apps: the txmap treap
  // seeds its priorities from a thread-local address.
  const std::vector<double> reads =
      per_pass([](const TxStats& s) { return s.reads; });
  const auto [lo, hi] = std::minmax_element(reads.begin(), reads.end());
  m["stm.reads_spread_pct"] = {pct(*hi - *lo, quantile(reads, 0.5)), "%", n};

  const TxStats s = total(sec);
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double full_writes = d(s.writes - s.write_elided());
  m["stm.abort_pct"] = {pct(d(s.aborts), d(s.aborts + s.commits)), "%", n};
  m["stm.write_own_fast_pct"] = {pct(d(s.write_own_fast), full_writes), "%", n};
  m["capture.read_hit_pct"] = {
      pct(d(s.read_elided_stack + s.read_elided_heap), d(s.reads)), "%", n};
  m["capture.write_hit_pct"] = {
      pct(d(s.write_elided_stack + s.write_elided_heap), d(s.writes)), "%", n};
  m["txir.read_static_pct"] = {pct(d(s.read_elided_static), d(s.reads)), "%", n};
  m["txir.write_static_pct"] = {pct(d(s.write_elided_static), d(s.writes)),
                                "%", n};
  m["txbatch.ops_per_flush"] = {ratio(d(s.batch_ops), d(s.batch_flushes)),
                                "count", n};
  const double commits = d(s.durable_commits);
  m["durable.stores_logged_per_commit"] = {
      ratio(d(s.durable_stores_logged), commits), "count", n};
  m["durable.pwbs_per_commit"] = {ratio(d(s.durable_pwbs), commits), "count", n};
  m["durable.pfences_per_commit"] = {ratio(d(s.durable_pfences), commits),
                                     "count", n};
  m["durable.log_bytes_per_commit"] = {ratio(d(s.durable_log_bytes), commits),
                                       "B", n};
  m["durable.flushes_elided_pct"] = {
      commits == 0.0 ? 0.0 : s.flushes_elided_percent(), "%", n};
}

// ROADMAP direction 3's linear model, measured from outside: every counted
// barrier, allocation and commit of a pass times its probed unit cost.
void model(const Workload& w, const Section& sec, const Metrics& probes,
           double pass_p50, Metrics& m) {
  const auto cost = [&](const std::string& name) {
    const auto it = probes.find(name);
    return it == probes.end() ? 0.0 : it->second.value;
  };
  const TxConfig& c = w.cfg;
  const bool runtime = c.heap_read;
  const std::string log = std::string(".") + cstm::to_string(c.alloc_log);
  double read_full = cost("stm.read_full_ns");
  double write_full = cost("stm.write_full_ns");
  double commit = cost("stm.tx_empty_ns");
  if (runtime) {
    read_full = cost("capture.read_miss_ns" + log);
    write_full = cost("capture.write_miss_ns" + log);
  }
  if (c.durable) {
    write_full = (cost("durable.tx_64w_ns") - cost("durable.tx_1w_ns")) / 63.0;
    commit = cost("durable.tx_1w_ns");
  }
  const TxStats s = total(sec);
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double ns =
      d(s.reads - s.read_elided()) * read_full +
      d(s.read_elided_heap) * cost("capture.read_hit_heap_ns" + log) +
      d(s.read_elided_stack + s.read_elided_private) *
          cost("capture.read_hit_stack_ns") +
      d(s.read_elided_static) * cost("txir.read_static_ns") +
      d(s.writes - s.write_elided()) * write_full +
      d(s.write_elided_heap) * cost("capture.write_hit_heap_ns" + log) +
      d(s.write_elided_stack + s.write_elided_private) *
          cost("capture.write_hit_stack_ns") +
      d(s.write_elided_static) * cost("txir.write_static_ns") +
      d(s.tx_allocs) * cost("txmalloc.alloc_free_ns" + (runtime ? log : ".none")) +
      d(s.commits) * commit + d(s.batch_ops) * cost("txbatch.op_ns");
  const std::size_t n = sec.size();
  // Threads run in parallel: the model charges each one its share.
  const double model_s = ns * 1e-9 / static_cast<double>(n) / w.threads;
  m["model.barrier_s_per_pass"] = {model_s, "s", n};
  m["model.residual_pct"] = {pct(pass_p50 - model_s, pass_p50), "%", n};
}

// Self time per span name, and the stamp-layer summaries over every app.
void span_metrics(const Trace& tr, Metrics& m, Metrics& spans) {
  const auto starts = [](const std::string& s, const char* prefix) {
    return s.rfind(prefix, 0) == 0;
  };
  std::vector<double> setup_s, worker_s, verify_s, pass_s;
  for (std::size_t k = 0; k < tr.names().size(); ++k) {
    const std::string& name = tr.names()[k];
    const std::vector<double> us(tr.self_us()[k].begin(),
                                 tr.self_us()[k].end());
    spans[name + ".self_us_p50"] = {quantile(us, 0.5), "us", us.size()};
    spans[name + ".self_us_p90"] = {quantile(us, 0.9), "us", us.size()};
    spans[name + ".self_us_p99"] = {quantile(us, 0.99), "us", us.size()};
    std::vector<double>* group = nullptr;
    if (starts(name, "stamp.setup.")) group = &setup_s;
    if (starts(name, "stamp.worker.")) group = &worker_s;
    if (starts(name, "stamp.verify.")) group = &verify_s;
    if (name == "pass") group = &pass_s;
    if (group != nullptr) {
      for (double v : us) group->push_back(v * 1e-6);
    }
  }
  m["stamp.setup_s_p50"] = {quantile(setup_s, 0.5), "s", setup_s.size()};
  m["stamp.worker_s_p50"] = {quantile(worker_s, 0.5), "s", worker_s.size()};
  m["stamp.worker_s_p90"] = {quantile(worker_s, 0.9), "s", worker_s.size()};
  m["stamp.verify_s_p50"] = {quantile(verify_s, 0.5), "s", verify_s.size()};
  m["trace.pass_self_s_p50"] = {quantile(pass_s, 0.5), "s", pass_s.size()};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace

RunResult run_workload(const Workload& w, const RunOptions& opt,
                       const Metrics& probes) {
  RunResult out;
  cstm::set_global_config(w.cfg);
  PassRunner runner(w, opt, out);
  {
    Section warmup;
    for (int i = 0; i < kWarmupPasses; ++i) runner.pass(warmup, nullptr, 0);
  }
  Section plain, traced;
  Trace tr(kTracePassesWritten);
  run_passes(runner, opt, plain, opt.trace ? &traced : nullptr, &tr);
  end_to_end(plain, out.metrics);
  out.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB", 1};
  layer_counts(plain, out.metrics);

  if (opt.trace) {
    const double p50 = out.metrics["pass_s_p50"].value;
    model(w, plain, probes, p50, out.metrics);
    span_metrics(tr, out.metrics, out.spans);
    Metrics traced_e2e;
    end_to_end(traced, traced_e2e);
    out.metrics["trace.overhead_pct"] = {
        pct(traced_e2e["pass_s_p50"].value - p50, p50), "%", traced.size()};
    const std::string path = opt.out_dir + "/trace-" + w.name + ".json";
    if (!tr.write_json(path, w.name)) {
      out.errors.push_back("cannot write " + path);
    }
  }
  cstm::set_global_config(TxConfig::baseline());

  std::vector<std::uint64_t> commits;
  for (const Section* sec : {&plain, &traced}) {
    for (const Pass& p : *sec) {
      out.attempted += p.ops;
      out.failed += p.failed_ops;
      commits.push_back(p.stats.commits);
    }
  }
  // The work check: one thread replays the same input every pass.
  if (w.threads == 1 &&
      std::adjacent_find(commits.begin(), commits.end(),
                         std::not_equal_to<>()) != commits.end()) {
    out.errors.push_back("commits per pass differ between passes");
  }
  return out;
}

}  // namespace capbench
