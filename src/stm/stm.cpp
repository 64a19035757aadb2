// Runtime globals and transaction lifecycle.
#include <pthread.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "capture/private_registry.hpp"
#include "durable/durable_heap.hpp"
#include "stm/config.hpp"
#include "stm/descriptor.hpp"
#include "stm/gclock.hpp"
#include "stm/orec.hpp"
#include "stm/stats.hpp"
#include "support/cacheline.hpp"
#include "txmalloc/pool.hpp"

namespace cstm {

// ---------------------------------------------------------------------------
// Globals
// ---------------------------------------------------------------------------

namespace {

std::mutex g_config_mutex;
TxConfig g_config{};
std::atomic<std::uint64_t> g_config_epoch{1};

struct StatsRegistry {
  std::mutex mutex;
  std::vector<Tx*> live;
  TxStats retired;
};

StatsRegistry& stats_registry() {
  static StatsRegistry registry;
  return registry;
}

thread_local std::uint64_t tls_seed_counter = 0;

std::uint64_t next_backoff_seed() {
  static std::atomic<std::uint64_t> counter{0x1234abcd};
  return counter.fetch_add(0x9e3779b97f4a7c15ull, std::memory_order_relaxed) +
         (++tls_seed_counter);
}

// Quarantined blocks of threads that exited before their frees quiesced.
std::mutex g_orphan_mutex;
std::vector<Tx::QuarantinedBlock> g_orphans;

/// Smallest snapshot timestamp among active transactions; kIdleEpoch when
/// none are active. A block freed at epoch e may be reused once
/// min_active_start() > e: no transaction that could hold a stale pointer
/// to it remains.
std::uint64_t min_active_start() {
  StatsRegistry& reg = stats_registry();
  std::lock_guard<std::mutex> lk(reg.mutex);
  std::uint64_t min_active = Tx::kIdleEpoch;
  for (Tx* t : reg.live) {
    const std::uint64_t a = t->active_since.load(std::memory_order_acquire);
    if (a < min_active) min_active = a;
  }
  return min_active;
}

/// Draws a fresh timestamp from the global clock and counts the draw. Every
/// version that ever reaches an unlocked orec word — commit, abort, cancel,
/// nested abort — comes through here, so released versions are always
/// <= global_clock().load() (a reader's extend() can always catch up; see
/// gclock.hpp).
std::uint64_t stamp_and_count(Tx& tx) {
  ++tx.stats.clock_reservations;
  return global_clock().stamp();
}

}  // namespace

void set_global_config(const TxConfig& cfg) {
  if (!cfg.valid()) {
    throw std::invalid_argument(
        "TxConfig: runtime checks, static_elision and count_mode are "
        "mutually exclusive, and stack_private requires a heap check");
  }
  std::lock_guard<std::mutex> lk(g_config_mutex);
  g_config = cfg;
  g_config_epoch.fetch_add(1, std::memory_order_release);
}

TxConfig global_config() {
  std::lock_guard<std::mutex> lk(g_config_mutex);
  return g_config;
}

PrivateRegistry& thread_private_registry() {
  thread_local PrivateRegistry registry;
  return registry;
}

void add_private_memory_block(void* addr, std::size_t size) {
  thread_private_registry().add(addr, size);
}

void remove_private_memory_block(void* addr, std::size_t size) {
  thread_private_registry().remove(addr, size);
}

TxStats stats_snapshot() {
  StatsRegistry& reg = stats_registry();
  std::lock_guard<std::mutex> lk(reg.mutex);
  TxStats sum = reg.retired;
  for (Tx* tx : reg.live) sum.add(tx->stats);
  return sum;
}

void stats_reset() {
  StatsRegistry& reg = stats_registry();
  std::lock_guard<std::mutex> lk(reg.mutex);
  reg.retired.reset();
  for (Tx* tx : reg.live) tx->stats.reset();
}

// ---------------------------------------------------------------------------
// Descriptor lifecycle
// ---------------------------------------------------------------------------

namespace {

/// Without its stack's low bound, rollback would skip every undo entry in
/// [0, start_sp), heap included, and an abort would leave heap writes in
/// place. No transaction may run on such a thread.
[[noreturn]] void stack_bounds_unknown(const char* call, int err) {
  std::fprintf(stderr,
               "capstm: %s failed (%s); the thread's stack bounds are "
               "unknown, so undo rollback cannot run\n",
               call, std::strerror(err));
  std::abort();
}

}  // namespace

Tx::Tx() : backoff_(next_backoff_seed()) {
  // Cache this thread's stack bounds: undo rollback must skip every entry
  // in [stack_low, start_sp) — memory that did not exist when the
  // transaction began is dead on abort, and by rollback time those
  // addresses may hold the live frames of the rollback code itself.
  pthread_attr_t attr;
  if (const int err = pthread_getattr_np(pthread_self(), &attr); err != 0) {
    stack_bounds_unknown("pthread_getattr_np", err);
  }
  void* addr = nullptr;
  std::size_t size = 0;
  const int err = pthread_attr_getstack(&attr, &addr, &size);
  pthread_attr_destroy(&attr);
  if (err != 0) stack_bounds_unknown("pthread_attr_getstack", err);
  stack_low = reinterpret_cast<std::uintptr_t>(addr);
  StatsRegistry& reg = stats_registry();
  std::lock_guard<std::mutex> lk(reg.mutex);
  reg.live.push_back(this);
}

Tx::~Tx() {
  // Thread exit: hand any unquiesced frees to the global orphan list so
  // surviving threads release them once it is safe. (The thread-local pool
  // may already be parked at this point, so no direct deallocation here.)
  {
    std::lock_guard<std::mutex> lk(g_orphan_mutex);
    g_orphans.insert(g_orphans.end(), quarantine.begin(), quarantine.end());
  }
  quarantine.clear();
  StatsRegistry& reg = stats_registry();
  std::lock_guard<std::mutex> lk(reg.mutex);
  reg.retired.add(stats);
  std::erase(reg.live, this);
}

void Tx::flush_quarantine(bool force) {
  if (!force && quarantine.size() < 64) return;
  const std::uint64_t min_active = min_active_start();
  std::size_t kept = 0;
  for (const QuarantinedBlock& q : quarantine) {
    if (q.epoch < min_active) {
      Pool::deallocate(q.ptr);
    } else {
      quarantine[kept++] = q;
    }
  }
  quarantine.resize(kept);
  // Opportunistically drain orphaned quarantine from exited threads.
  std::vector<QuarantinedBlock> eligible;
  {
    std::lock_guard<std::mutex> lk(g_orphan_mutex);
    std::size_t okept = 0;
    for (const QuarantinedBlock& q : g_orphans) {
      if (q.epoch < min_active) {
        eligible.push_back(q);
      } else {
        g_orphans[okept++] = q;
      }
    }
    g_orphans.resize(okept);
  }
  for (const QuarantinedBlock& q : eligible) Pool::deallocate(q.ptr);
}

Tx& current_tx() {
  thread_local Tx tx;
  return tx;
}

void Tx::reset_logs() {
  rs.clear();
  ws.clear();
  undo.clear();
  levels.clear();
  freed_events.clear();
  alloc.clear();
  dlog.clear();
  durable_allocs.clear();
  // Only the plan's log is maintained, so only it needs a reset; tree_log()
  // and filter_log() construct the structure on the first transaction that
  // actually selects it.
  with_active_log([](auto& log) { log.clear(); });
  // Fold the array log's overflow counter (cumulative across clears, by
  // design) into the stats as a delta. Every transaction exit path — commit,
  // abort, cancel — comes through reset_logs, so the counter is current
  // whenever anyone snapshots stats.
  const std::uint64_t dropped = frame.array.dropped();
  if (dropped > array_dropped_seen_) {
    stats.array_overflows += dropped - array_dropped_seen_;
    array_dropped_seen_ = dropped;
  }
}

namespace {
thread_local std::uint64_t tls_cfg_epoch = 0;
}

void Tx::begin_top(const void* sp) {
  // Pick up configuration changes made between runs, and compile them into
  // this descriptor's barrier plan: every per-access config decision the
  // barriers used to make is resolved here, once.
  const std::uint64_t epoch = g_config_epoch.load(std::memory_order_acquire);
  if (epoch != tls_cfg_epoch) {
    cfg = global_config();
    tls_cfg_epoch = epoch;
    plan = BarrierPlan::compile(cfg);
    // Construct the plan's log and cache its views in the frame (the plan
    // paths read frame.tree and the filter view without a null check). Every
    // exit path cleared the logs through reset_logs, so begin clears none.
    with_active_log([](auto&) {});
  }
  flush_quarantine(/*force=*/false);
  start_ts = global_clock().load();
  active_since.store(start_ts, std::memory_order_release);
  frame.stack_begin = reinterpret_cast<std::uintptr_t>(sp);
  depth = 1;
  frame.priv = &thread_private_registry();
  if (plan.log == ActiveLog::kFilter) {
    // The filter's O(1) clear is an epoch bump; re-cache the frame's view.
    frame.filter_epoch = filter_log().epoch();
  }
}

void Tx::begin_nested(const void* sp) {
  levels.push_back(LevelMark{rs.size(), ws.size(), undo.size(),
                             alloc.allocs.size(), alloc.deferred_frees.size(),
                             freed_events.size(), dlog.size(),
                             durable_allocs.size(), sp});
  ++depth;
}

void Tx::commit_nested() {
  levels.pop_back();
  --depth;
}

void Tx::commit_top() {
  if (!ws.empty()) {
    const std::uint64_t wv = stamp_and_count(*this);
    // The classic TL2 skip: if no other writer stamped since our begin
    // snapshot, the read set is trivially still valid. Otherwise revalidate
    // before releasing. (The stamp precedes the releases below: invariant
    // (1) in gclock.hpp.)
    if (wv != start_ts + 1 && !validate()) abort_self();
    // Durable leg BEFORE the orec releases below: no other transaction may
    // observe post-state that is not yet durably decided. (Durable work
    // with an empty write set cannot exist — every redo entry and every
    // durable alloc's cursor bump owns an orec.)
    if (plan.durable && (!dlog.empty() || !durable_allocs.empty())) {
      dur::commit_tx(*this);
    }
    const std::uint64_t word = orec::make_version(wv);
    for (const OwnedOrec& w : ws) {
      w.rec->store(word, std::memory_order_release);
    }
  }
  // Allocator commit actions. Blocks both allocated and freed inside this
  // transaction never escaped (their publishing writes were locked), so
  // they are released directly. Frees of *pre-transaction* memory are
  // quarantined: a doomed concurrent transaction may still write through a
  // stale pointer, and those bytes must not become allocator metadata until
  // every such transaction is gone (cf. McRT-Malloc's deferred reclamation).
  for (const AllocRecord& r : alloc.allocs) {
    if (r.freed_in_tx) Pool::deallocate(r.ptr);
  }
  if (!alloc.deferred_frees.empty()) {
    const std::uint64_t epoch = global_clock().load();
    for (void* p : alloc.deferred_frees) {
      quarantine.push_back(QuarantinedBlock{p, epoch});
    }
  }
  reset_logs();
  depth = 0;
  active_since.store(kIdleEpoch, std::memory_order_release);
  ++stats.commits;
  consecutive_aborts = 0;
}

void Tx::rollback_top() {
  // Roll back memory, release ownership, undo allocations, in that order:
  // undo entries may point into blocks about to be returned to the pool.
  // Undo entries into the transaction's own (now possibly dead) stack
  // window are skipped — see UndoLog::rollback.
  //
  // Released records get a *fresh* clock version, not their pre-lock one:
  // restoring the old word would let a reader whose two orec samples
  // straddle our whole lock/dirty-write/rollback/release cycle accept a
  // dirty value (ABA on the version word). The bump forces revalidation —
  // occasionally spurious, never unsafe. Stamps are globally unique
  // (gclock.hpp invariant (2)), so the released version is fresh.
  undo.rollback(0, stack_low, frame.stack_begin);
  if (!ws.empty()) {
    const std::uint64_t av = orec::make_version(stamp_and_count(*this));
    for (std::size_t i = ws.size(); i-- > 0;) {
      ws[i].rec->store(av, std::memory_order_release);
    }
  }
  for (std::size_t i = alloc.allocs.size(); i-- > 0;) {
    Pool::deallocate(alloc.allocs[i].ptr);
  }
  // Deferred frees are dropped: the transaction did not happen.
  reset_logs();
  depth = 0;
  active_since.store(kIdleEpoch, std::memory_order_release);
}

void Tx::abort_self() {
  rollback_top();
  ++stats.aborts;
  ++consecutive_aborts;
  throw TxAbortException{};
}

void Tx::cancel() {
  rollback_top();
  // A cancel ends the transaction like a commit does: the next, unrelated
  // transaction must start its backoff from the first step.
  consecutive_aborts = 0;
}

void Tx::abort_nested() {
  const LevelMark m = levels.back();
  levels.pop_back();
  // Skip only the aborted level's dead stack window; locals of enclosing
  // levels (between level_sp and start_sp) are live-in for this child and
  // must be restored (Section 2.2.1).
  undo.rollback(m.undo, stack_low,
                reinterpret_cast<std::uintptr_t>(m.level_sp));
  if (ws.size() > m.ws) {
    const std::uint64_t av = orec::make_version(stamp_and_count(*this));
    for (std::size_t i = ws.size(); i-- > m.ws;) {
      ws[i].rec->store(av, std::memory_order_release);
      // The fresh stamp protects CONCURRENT readers from ABA, but it must
      // not doom the surviving enclosing levels: if an outer level read
      // this record before the aborted child locked it (observed ==
      // the child's pre-lock word), the value it read is still there — we
      // held the lock from acquisition to this very release and the undo
      // above restored the pre-lock bytes. Advance those read entries to
      // the released version, i.e. apply the validate() rule for
      // self-locked records eagerly, at the moment the lock disappears.
      // Without this the parent's commit validation fails against its own
      // child's release stamp — deterministically, so the merged batch
      // (or any nested-abort-then-commit pattern) retries forever.
      for (std::size_t j = 0; j < m.rs; ++j) {
        if (rs[j].rec == ws[i].rec && rs[j].observed == ws[i].prev) {
          rs[j].observed = av;
        }
      }
    }
  }
  ws.truncate(m.ws);
  rs.truncate(m.rs);
  // Undo frees performed in the aborted level on blocks allocated by an
  // ancestor: restore their live status (and their allocation-log entries).
  for (std::size_t i = freed_events.size(); i-- > m.freed_events;) {
    const std::size_t idx = freed_events[i];
    if (idx < m.allocs) {
      alloc.allocs[idx].freed_in_tx = false;
      alloc_log_insert(alloc.allocs[idx].ptr, alloc.allocs[idx].size);
    }
  }
  freed_events.resize(m.freed_events);
  // Undo allocations performed in the aborted level.
  for (std::size_t i = alloc.allocs.size(); i-- > m.allocs;) {
    const AllocRecord& r = alloc.allocs[i];
    if (!r.freed_in_tx) alloc_log_erase(r.ptr, r.size);
    Pool::deallocate(r.ptr);
  }
  alloc.allocs.resize(m.allocs);
  alloc.deferred_frees.resize(m.frees);
  // Durable mode: drop the aborted level's redo entries and unwind its
  // durable-region allocations (the bump cursor itself was restored by the
  // undo rollback above — it is ordinary transactional data).
  dlog.truncate(m.dlog);
  for (std::size_t i = durable_allocs.size(); i-- > m.dallocs;) {
    alloc_log_erase(durable_allocs[i].ptr, durable_allocs[i].size);
  }
  durable_allocs.resize(m.dallocs);
  --depth;
  ++stats.nested_partial_aborts;
}

bool Tx::validate() const {
  for (const ReadEntry& e : rs) {
    const std::uint64_t cur = e.rec->load(std::memory_order_acquire);
    if (cur == e.observed) continue;
    if (orec::is_locked(cur) && orec::owner_of(cur) == this) {
      // We locked this record after reading it; valid iff the pre-lock
      // version matches what the read observed.
      bool ok = false;
      for (const OwnedOrec& w : ws) {
        if (w.rec == e.rec) {
          ok = (w.prev == e.observed);
          break;
        }
      }
      if (ok) continue;
    }
    return false;
  }
  return true;
}

bool Tx::extend() {
  // Lazy revalidation against the clock: the snapshot moves forward only
  // after the whole read set re-checks clean. The version that triggered
  // this extend was released AFTER it was stamped (gclock.hpp invariant
  // (1)), so `now` is always >= that version and a successful extend
  // really does cover it.
  const std::uint64_t now = global_clock().load();
  ++stats.lazy_revalidations;
  if (!validate()) return false;
  start_ts = now;
  return true;
}

void Tx::on_conflict() {
  // The one contention policy: yield to the lock owner by aborting self;
  // the retry loop in txn.hpp backs off before the next attempt.
  ++stats.cm_aborts_backoff;
  abort_self();
}

}  // namespace cstm
