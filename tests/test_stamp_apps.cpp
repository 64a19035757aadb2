// Integration tests: every STAMP application must run to completion and
// pass its own verification, sequentially and with threads, under baseline
// and under the optimization configurations. A failed verification aborts
// the process (run_app enforces it), so these tests double as end-to-end
// correctness checks of the whole stack: STM + capture analysis + allocator
// + containers + application logic.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "harness/experiment.hpp"
#include "stamp/app.hpp"
#include "stamp/bayes/bayes.hpp"
#include "stm/stm.hpp"

namespace cstm {

namespace stamp {
/// Reads BayesApp's private task list, head first.
struct BayesTestAccess {
  static std::vector<std::uint64_t> task_list(BayesApp& app) {
    TxList<std::uint64_t>& list = *app.task_list_;
    std::vector<std::uint64_t> out;
    atomic([&](Tx& tx) {
      out.clear();
      TxList<std::uint64_t>::Iterator it;
      list.iter_reset(tx, &it);
      while (list.iter_has_next(tx, &it)) {
        out.push_back(list.iter_next(tx, &it));
      }
    });
    return out;
  }
};
}  // namespace stamp

namespace {

struct Case {
  std::string app;
  int threads;
  const char* cfg_name;
  TxConfig cfg;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  const std::vector<std::pair<const char*, TxConfig>> cfgs = {
      {"baseline", TxConfig::baseline()},
      {"rt_rw_tree", TxConfig::runtime_rw(AllocLogKind::kTree)},
      {"rt_rw_array", TxConfig::runtime_rw(AllocLogKind::kArray)},
      {"rt_rw_filter", TxConfig::runtime_rw(AllocLogKind::kFilter)},
      {"rt_heap_w_tree", TxConfig::runtime_heap_w(AllocLogKind::kTree)},
      {"compiler", TxConfig::compiler()},
      {"counting", TxConfig::counting()},
  };
  for (const auto& app : stamp::app_names()) {
    for (const auto& [cfg_name, cfg] : cfgs) {
      out.push_back(Case{app, 1, cfg_name, cfg});
      out.push_back(Case{app, 4, cfg_name, cfg});
    }
  }
  return out;
}

class StampApps : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StampApps, RunsAndVerifies) {
  const Case c = cases()[GetParam()];
  harness::Options opt;
  opt.scale = 0.05;  // tiny inputs: this is a correctness test, not a bench
  opt.reps = 1;
  const harness::RunResult res = harness::run_once(c.app, c.threads, c.cfg, opt);
  EXPECT_GT(res.stats.commits, 0u) << c.app;
  // verify() already ran inside run_app (aborts on failure).
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(AllAppsAllConfigs, StampApps,
                         ::testing::Range<std::size_t>(0, cases().size()),
                         [](const auto& info) {
                           const Case c = cases()[info.param];
                           std::string name = c.app + "_" + c.cfg_name + "_t" +
                                              std::to_string(c.threads);
                           for (auto& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

// The barrier profiles the paper reports must show up in our apps.
TEST(StampProfiles, VacationHasCapturedWritesAndStackIterators) {
  harness::Options opt;
  opt.scale = 0.05;
  const auto res =
      harness::run_once("vacation-high", 1, TxConfig::counting(), opt);
  const TxStats& s = res.stats;
  EXPECT_GT(s.write_cap_heap, 0u);    // map/list node inits
  EXPECT_GT(s.write_cap_stack, 0u);   // iterators on tx-local stack
  EXPECT_GT(s.read_required, 0u);     // shared tree traversals
}

TEST(StampProfiles, KmeansHasNoCaptureOpportunity) {
  harness::Options opt;
  opt.scale = 0.05;
  const auto res = harness::run_once("kmeans-high", 1, TxConfig::counting(), opt);
  const TxStats& s = res.stats;
  EXPECT_EQ(s.write_cap_heap, 0u);
  EXPECT_EQ(s.write_cap_stack, 0u);
  EXPECT_EQ(s.read_cap_heap, 0u);
}

TEST(StampProfiles, LabyrinthHasNoRedundantBarriers) {
  harness::Options opt;
  opt.scale = 0.05;
  const auto res = harness::run_once("labyrinth", 1, TxConfig::counting(), opt);
  const TxStats& s = res.stats;
  EXPECT_EQ(s.read_cap_heap + s.read_cap_stack + s.read_not_required, 0u);
  EXPECT_EQ(s.write_cap_heap + s.write_cap_stack + s.write_not_required, 0u);
}

TEST(StampProfiles, YadaIsWriteAndAllocationHeavy) {
  harness::Options opt;
  opt.scale = 0.05;
  const auto res = harness::run_once("yada", 1, TxConfig::counting(), opt);
  const TxStats& s = res.stats;
  EXPECT_GT(s.tx_allocs, 0u);
  EXPECT_GT(s.write_cap_heap, 0u);
}

TEST(StampProfiles, BayesUsesAnnotatedPrivateMemory) {
  harness::Options opt;
  opt.scale = 0.05;
  const auto res = harness::run_once("bayes", 1, TxConfig::runtime_rw(), opt);
  const TxStats& s = res.stats;
  EXPECT_GT(s.write_elided_private + s.read_elided_private, 0u);
}

TEST(StampProfiles, VacationCompilerElidesStatically) {
  harness::Options opt;
  opt.scale = 0.05;
  const auto res = harness::run_once("vacation-low", 1, TxConfig::compiler(), opt);
  const TxStats& s = res.stats;
  EXPECT_GT(s.write_elided_static, 0u);
}

// -- bayes input --------------------------------------------------------------
// setup() draws the learner's task list from the seed. The list is the
// workload every bayes row measures, so its contents are pinned: a change to
// how it is built must not change what is built.

std::uint64_t fnv1a(const std::vector<std::uint64_t>& values) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t v : values) h = (h ^ v) * 1099511628211ull;
  return h;
}

TEST(BayesSetup, TaskListIsPinned) {
  struct Pin {
    double scale;
    std::uint64_t seed;
    std::size_t tasks;  // num_vars * 24, num_vars = 96 * scale
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {1.0, 20090811, 96 * 24, 0x288e4b3317fa01dbull},
      {1.0, 3, 96 * 24, 0xa281b741dcb064a7ull},
      {2.0, 20090811, 192 * 24, 0xd6d325aa2978f45eull},
      {2.0, 3, 192 * 24, 0xecb945285fd4f05bull},
  };
  for (const Pin& p : pins) {
    stamp::BayesApp app;
    stamp::AppParams params;
    params.scale = p.scale;
    params.seed = p.seed;
    app.setup(params);
    const std::vector<std::uint64_t> tasks =
        stamp::BayesTestAccess::task_list(app);
    EXPECT_EQ(tasks.size(), p.tasks) << "scale " << p.scale;
    EXPECT_TRUE(std::is_sorted(tasks.begin(), tasks.end()))
        << "scale " << p.scale << " seed " << p.seed;
    EXPECT_EQ(fnv1a(tasks), p.digest)
        << "scale " << p.scale << " seed " << p.seed << std::hex
        << " digest 0x" << fnv1a(tasks);
  }
}

// Building the sorted list one walking insert per task is quadratic: over
// 3 s at scale 16 in a Release build, against milliseconds for the sorted
// build. Setup is untimed but reported (capbench's setup_s).
TEST(BayesSetup, SortedBuildIsNotQuadratic) {
  stamp::BayesApp app;
  stamp::AppParams params;
  params.scale = 16.0;
  const auto t0 = std::chrono::steady_clock::now();
  app.setup(params);
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - t0;
  EXPECT_LT(took.count(), 1.0);
}

// -- Timed region -------------------------------------------------------------
// run_app/run_app_stream must time every worker from start to finish: a
// worker that spins for 2 ms can never be reported as faster than that.

constexpr double kSpinSeconds = 0.002;

void spin_for(double seconds) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < until) {
  }
}

class OneRequestSource : public stamp::RequestSource {
 public:
  std::function<void(Tx&)> next() override {
    if (served_) return {};
    served_ = true;
    return [](Tx&) { spin_for(kSpinSeconds); };
  }

 private:
  bool served_ = false;
};

class SpinApp : public stamp::App {
 public:
  const char* name() const override { return "spin"; }
  void setup(const stamp::AppParams&) override {}
  void worker(int) override { spin_for(kSpinSeconds); }
  bool verify() override { return true; }
  std::unique_ptr<stamp::RequestSource> open_request_stream(int) override {
    return std::make_unique<OneRequestSource>();
  }
};

TEST(TimedRegion, RunAppCoversTheWholeWorker) {
  stamp::AppParams params;
  params.threads = 1;
  for (int i = 0; i < 20; ++i) {
    SpinApp app;
    EXPECT_GE(stamp::run_app(app, params), kSpinSeconds) << "run " << i;
  }
}

TEST(TimedRegion, RunAppStreamCoversTheWholeRequest) {
  stamp::AppParams params;
  params.threads = 1;
  for (int i = 0; i < 20; ++i) {
    SpinApp app;
    std::uint64_t requests = 0;
    EXPECT_GE(stamp::run_app_stream(app, params, 1, &requests), kSpinSeconds)
        << "run " << i;
    EXPECT_EQ(requests, 1u);
  }
}

}  // namespace
}  // namespace cstm
