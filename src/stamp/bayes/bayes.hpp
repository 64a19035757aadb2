// bayes: Bayesian network structure learning (STAMP bayes, structurally
// simplified).
//
// The STAMP learner pulls tasks off a shared task list with a stack
// iterator (the paper's Figure 1(a) snippet is literally this code),
// evaluates a score over thread-local query vectors (Figure 1(b) —
// annotated with addPrivateMemoryBlock here), and mutates the network's
// parent lists transactionally. This reimplementation keeps exactly those
// three transactional access patterns; the score function is a
// deterministic surrogate for the log-likelihood computation.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "containers/txlist.hpp"
#include "generated/site_verdicts.hpp"
#include "stamp/app.hpp"

namespace cstm::stamp {

class BayesApp : public App {
 public:
  const char* name() const override { return "bayes"; }
  void setup(const AppParams& params) override;
  void worker(int tid) override;
  bool verify() override;

 private:
  static constexpr std::size_t kQueryVectorWords = 32;

  AppParams params_;
  std::size_t num_vars_ = 0;
  std::size_t initial_tasks_ = 0;
  std::unique_ptr<TxList<std::uint64_t>> task_list_;   // packed (score, var)
  std::vector<std::unique_ptr<TxList<std::uint64_t>>> parents_;  // per var
  std::vector<std::uint64_t> records_;                 // read-only samples
  alignas(64) tvar<std::uint64_t, bayes_sites::kCounter> tasks_done_{0};
  alignas(64) tvar<std::uint64_t, bayes_sites::kCounter> tasks_created_{0};
  alignas(64) tvar<std::uint64_t, bayes_sites::kCounter> arcs_added_{0};

  friend struct BayesTestAccess;
};

}  // namespace cstm::stamp
