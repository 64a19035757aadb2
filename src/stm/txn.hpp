// Transaction control: cstm::atomic() runs a callable as a transaction with
// single-lock-atomicity semantics, retrying on conflict aborts after an
// exponential randomized backoff (support/backoff.hpp). Nested calls form
// closed-nested transactions with partial abort (Section 2.2.1).
#pragma once

#include "stm/descriptor.hpp"

namespace cstm {

/// Aborts the innermost transaction: a nested transaction partially rolls
/// back and control resumes after its atomic() call; a top-level transaction
/// cancels (no retry).
[[noreturn]] inline void abort_tx() { throw TxUserAbort{}; }

namespace detail {

// These trampolines must never be inlined into the caller: their frame base
// is the transaction's start_sp (Figure 3). Inlining would place the
// caller's pre-transaction locals *below* start_sp and misclassify them as
// transaction-local — a correctness bug, since live-in locals need undo
// logging. Keeping the body invocation inside the trampoline guarantees all
// locals created during the transaction sit below start_sp.

template <typename F>
[[gnu::noinline]] void run_nested(Tx& tx, F&& body) {
  tx.begin_nested(__builtin_frame_address(0));
  try {
    body(tx);
    tx.commit_nested();
  } catch (const TxUserAbort&) {
    tx.abort_nested();
  }
  // TxAbortException propagates: abort_self() already rolled back all
  // levels; only the top-level loop may retry.
}

template <typename F>
[[gnu::noinline]] void run_top(Tx& tx, F&& body) {
  const void* sp = __builtin_frame_address(0);
  for (;;) {
    tx.begin_top(sp);
    try {
      body(tx);
      tx.commit_top();
      return;
    } catch (const TxAbortException&) {
      // Conflict: state already rolled back; back off before the retry.
      tx.pause_backoff();
    } catch (const TxUserAbort&) {
      tx.cancel();
      return;
    } catch (...) {
      tx.cancel();
      throw;
    }
  }
}

}  // namespace detail

/// Executes @p body transactionally. The callable receives the transaction
/// descriptor used with tm_read/tm_write/tx_malloc. Exceptions other than
/// the internal control-flow types cancel the transaction and propagate.
template <typename F>
void atomic(F&& body) {
  Tx& tx = current_tx();
  if (tx.in_tx()) {
    detail::run_nested(tx, body);
  } else {
    detail::run_top(tx, body);
  }
}

}  // namespace cstm
