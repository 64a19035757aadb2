#include "stamp/app.hpp"

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <thread>

#include "stamp/bayes/bayes.hpp"
#include "stamp/genome/genome.hpp"
#include "stamp/intruder/intruder.hpp"
#include "stamp/kmeans/kmeans.hpp"
#include "stamp/labyrinth/labyrinth.hpp"
#include "stamp/ssca2/ssca2.hpp"
#include "stamp/vacation/vacation.hpp"
#include "stamp/yada/yada.hpp"
#include "txbatch/batcher.hpp"

namespace cstm::stamp {

std::unique_ptr<App> make_app(const std::string& name) {
  if (name == "bayes") return std::make_unique<BayesApp>();
  if (name == "genome") return std::make_unique<GenomeApp>();
  if (name == "intruder") return std::make_unique<IntruderApp>();
  if (name == "kmeans-high") return std::make_unique<KmeansApp>(true);
  if (name == "kmeans-low") return std::make_unique<KmeansApp>(false);
  if (name == "labyrinth") return std::make_unique<LabyrinthApp>();
  if (name == "ssca2") return std::make_unique<Ssca2App>();
  if (name == "vacation-high") return std::make_unique<VacationApp>(true);
  if (name == "vacation-low") return std::make_unique<VacationApp>(false);
  if (name == "yada") return std::make_unique<YadaApp>();
  throw std::out_of_range("unknown app: " + name);
}

const std::vector<std::string>& app_names() {
  static const std::vector<std::string> names = {
      "bayes",     "genome",       "intruder",     "kmeans-high",
      "kmeans-low", "labyrinth",   "ssca2",        "vacation-high",
      "vacation-low", "yada"};
  return names;
}

namespace {

/// Runs `state = prepare(tid)` and then `work(tid, state)` on @p n threads
/// and returns the seconds of the work phase. Each state is destroyed on its
/// own thread after the phase. Both timestamps are taken in the barrier's
/// completion function, which runs once per phase after all n threads have
/// arrived and before any is released, so the first stamp precedes every
/// thread's work and the second follows it. (A stamp taken by a thread after
/// it wakes can start the clock after a short worker has already finished.)
template <class Prepare, class Work>
double timed_region(int n, Prepare prepare, Work work) {
  using clock = std::chrono::steady_clock;
  clock::time_point stamps[2];
  int phase = 0;
  std::barrier sync(n, [&]() noexcept { stamps[phase++] = clock::now(); });
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int tid = 0; tid < n; ++tid) {
    threads.emplace_back([&, tid] {
      auto state = prepare(tid);
      sync.arrive_and_wait();  // line up: first stamp
      work(tid, state);
      sync.arrive_and_wait();  // all done: second stamp
    });
  }
  for (auto& t : threads) t.join();
  return std::chrono::duration<double>(stamps[1] - stamps[0]).count();
}

}  // namespace

double run_app(App& app, const AppParams& params) {
  app.setup(params);
  const double elapsed = timed_region(
      params.threads, [](int) { return 0; },
      [&](int tid, int) { app.worker(tid); });
  if (!app.verify()) {
    std::fprintf(stderr, "FATAL: %s failed verification (threads=%d)\n",
                 app.name(), params.threads);
    std::abort();
  }
  return elapsed;
}

double run_app_stream(App& app, const AppParams& params, std::size_t batch,
                      std::uint64_t* requests_out) {
  app.setup(params);
  const int n = params.threads;
  std::atomic<std::uint64_t> total_requests{0};
  std::atomic<bool> not_batchable{false};
  const double elapsed = timed_region(
      n, [&](int tid) { return app.open_request_stream(tid); },
      [&](int, std::unique_ptr<RequestSource>& source) {
        if (source == nullptr) {
          not_batchable.store(true);
          return;
        }
        txbatch::BatcherOptions opts;
        opts.max_batch = batch;
        txbatch::Batcher batcher(opts);
        std::uint64_t replayed = 0;
        for (std::function<void(Tx&)> fn = source->next(); fn;
             fn = source->next()) {
          batcher.enqueue(std::move(fn));
          ++replayed;
        }
        batcher.drain();
        total_requests.fetch_add(replayed);
      });
  if (not_batchable.load()) {
    std::fprintf(stderr, "FATAL: %s has no request-stream adapter\n",
                 app.name());
    std::abort();
  }
  if (!app.verify()) {
    std::fprintf(stderr,
                 "FATAL: %s failed verification (threads=%d, batch=%zu)\n",
                 app.name(), n, batch);
    std::abort();
  }
  if (requests_out != nullptr) *requests_out = total_requests.load();
  return elapsed;
}

}  // namespace cstm::stamp
