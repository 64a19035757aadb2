#include "stamp/bayes/bayes.hpp"

#include <algorithm>
#include <functional>

#include "capture/private_registry.hpp"
#include "stm/stm.hpp"
#include "support/random.hpp"

namespace cstm::stamp {

namespace {
constexpr std::uint64_t pack_task(std::uint64_t score, std::uint64_t var) {
  return (score << 24) | var;
}
constexpr std::uint64_t task_var(std::uint64_t t) { return t & 0xffffffu; }
}  // namespace

void BayesApp::setup(const AppParams& params) {
  params_ = params;
  num_vars_ = static_cast<std::size_t>(96 * params.scale);
  if (num_vars_ < 24) num_vars_ = 24;
  initial_tasks_ = num_vars_ * 24;

  Xoshiro256 rng(params.seed);
  records_.resize(num_vars_ * 16);
  for (auto& r : records_) r = rng.next();

  task_list_ = std::make_unique<TxList<std::uint64_t>>(/*allow_duplicates=*/true);
  parents_.clear();
  for (std::size_t v = 0; v < num_vars_; ++v) {
    parents_.push_back(std::make_unique<TxList<std::uint64_t>>());
  }
  // Each task draws its var, then its score, in two statements so every
  // compiler draws the same input (tests/test_stamp_apps.cpp pins the
  // list). The tasks go in descending order, so each insert stops at the
  // head of the ascending list: setup is one sort, not a list walk per
  // task. Equal tasks are identical, so the order ties go in is moot.
  std::vector<std::uint64_t> tasks(initial_tasks_);
  for (auto& task : tasks) {
    const std::uint64_t var = rng.below(num_vars_);
    const std::uint64_t score = rng.below(1u << 20);
    task = pack_task(score, var);
  }
  std::sort(tasks.begin(), tasks.end(), std::greater<>());
  Tx& tx = current_tx();
  for (const std::uint64_t task : tasks) task_list_->insert(tx, task);
  tasks_created_.poke(initial_tasks_);
  tasks_done_.poke(0);
  arcs_added_.poke(0);
}

void BayesApp::worker(int tid) {
  Xoshiro256 rng(params_.seed * 31 + static_cast<std::uint64_t>(tid));

  // Figure 1(b): a per-thread query vector, annotated as private so the
  // annotation-aware runtime elides its barriers.
  tvar_array<std::uint64_t, kQueryVectorWords, bayes_sites::kQueryVec>
      query_vector;
  add_private_memory_block(query_vector.data(), query_vector.size_bytes());

  for (;;) {
    std::uint64_t task = 0;
    bool got = false;
    bool finished = false;
    // Figure 1(a), verbatim structure: iterator on the transaction-local
    // stack; the learner scans a window of the task list for the
    // best-scoring task before removing it (as STAMP's learner does).
    atomic([&](Tx& tx) {
      got = false;
      finished = false;
      typename TxList<std::uint64_t>::Iterator it;
      // The running best lives on the transaction-local stack too.
      tvar<std::uint64_t, kAutoCapturedSite> best{0};
      std::uint64_t scanned = 0;
      task_list_->iter_reset(tx, &it);
      while (task_list_->iter_has_next(tx, &it) && scanned < 32) {
        const std::uint64_t cand = task_list_->iter_next(tx, &it);
        if (cand >= best.get(tx)) {
          best.set(tx, cand);
        }
        ++scanned;
      }
      if (scanned > 0) {
        task = best.get(tx);
        got = task_list_->remove(tx, task);
      } else if (tasks_done_.get(tx) == tasks_created_.get(tx)) {
        finished = true;
      }
    });
    if (finished) break;
    if (!got) continue;  // raced with another learner; rescan

    const std::uint64_t var = task_var(task);

    // Score the candidate parent: populate the private query vector and
    // compute a local log-likelihood surrogate over the read-only records.
    std::uint64_t parent = 0;
    std::uint64_t score = 0;
    atomic([&](Tx& tx) {
      for (std::size_t i = 0; i < kQueryVectorWords; ++i) {
        query_vector.set(tx, i, records_[(var * 16 + i) % records_.size()]);
      }
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < kQueryVectorWords; ++i) {
        acc ^= query_vector.get(tx, i) * (i + 1);
      }
      parent = acc % num_vars_;
      score = acc >> 44;
    });

    // Apply: add the parent arc if absent and acyclic-by-ordering (parent
    // id must be smaller — a cheap DAG guarantee), occasionally spawning a
    // follow-up refinement task.
    const bool spawn = rng.below(8) == 0;
    atomic([&](Tx& tx) {
      if (parent < var && parents_[var]->insert(tx, parent)) {
        arcs_added_.add(tx, 1);
      }
      if (spawn && tasks_created_.get(tx) < initial_tasks_ * 2) {
        task_list_->insert(tx, pack_task(score, parent));
        tasks_created_.add(tx, 1);
      }
      tasks_done_.add(tx, 1);
    });
  }

  remove_private_memory_block(query_vector.data(), query_vector.size_bytes());
}

bool BayesApp::verify() {
  if (tasks_done_.peek() != tasks_created_.peek()) return false;
  // DAG by construction: every arc must point from a smaller id.
  Tx& tx = current_tx();
  bool ok = true;
  std::uint64_t arcs = 0;
  for (std::size_t v = 0; v < num_vars_; ++v) {
    typename TxList<std::uint64_t>::Iterator it;
    parents_[v]->iter_reset(tx, &it);
    while (parents_[v]->iter_has_next(tx, &it)) {
      if (parents_[v]->iter_next(tx, &it) >= v) ok = false;
      ++arcs;
    }
  }
  return ok && arcs == arcs_added_.peek() && task_list_->empty(tx);
}

}  // namespace cstm::stamp
