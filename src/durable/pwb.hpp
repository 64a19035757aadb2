// Persistence primitives behind a portable shim (ROADMAP direction 2).
//
// Real persistent-memory code orders stores with a cache-line write-back
// (clwb / clflushopt / clflush) followed by a store fence; this repo must
// run — and crash-test — on machines with no PM at all, so it simulates
// PM. The durable heap keeps TWO copies of its state: a volatile working
// copy that transactions read and write (the "CPU cache") and a
// file-backed mmap (the "persistent medium"). pwb copies bytes
// working→backing; pfence is a compiler barrier. A process that dies
// loses exactly the bytes it never wrote back — which is what makes the
// fork-based crash-injection harness deterministic and meaningful
// (tests/test_durable_recovery.cpp).
//
// The CrashPoint hook is the heart of the recovery harness: commit_tx
// announces every step of the flush/fence sequence through crash_point(),
// and the test installs a hook that _exit()s the forked child at a chosen
// step. Production builds leave the hook null — one relaxed load per
// durable commit step, nothing per access.
#pragma once

#include <atomic>
#include <cstdint>

namespace cstm::dur {

/// Every step of the durable commit sequence, in execution order. The
/// recovery invariant the crash harness enforces: crashing at any point
/// strictly before kAfterCommitRecordFlush recovers the full pre-tx state;
/// crashing at kAfterCommitRecordFlush or later recovers the full post-tx
/// state. Never a torn mix.
enum class CrashPoint : int {
  kBeforeCommit = 0,        // durable work identified, nothing persisted yet
  kAfterCapturedWriteback,  // captured blocks copied to the medium (still
                            // unreachable: no committed pointer to them)
  kAfterEntriesWrite,       // redo entries serialized to the log working copy
  kAfterEntriesFlush,       // ...and written back to the medium
  kAfterEntriesFence,       // ...and fenced
  kAfterCommitRecordWrite,  // checksum written to the log working copy
  kAfterCommitRecordFlush,  // checksum on the medium: COMMIT POINT
  kAfterCommitRecordFence,
  kDuringDataWriteback,     // first redo'd line written back in place
  kAfterDataWriteback,      // all lines written back + fenced
  kAfterWatermark,          // applied_seq advanced: log slot reusable
  kCount
};

const char* crash_point_name(CrashPoint p);

using CrashHook = void (*)(CrashPoint);

/// Installs @p hook (nullptr to disarm). Test-only; not thread-safe against
/// concurrent durable commits by design — the crash harness is
/// single-threaded up to the _exit.
void set_crash_hook(CrashHook hook);

namespace detail {
inline std::atomic<CrashHook> g_crash_hook{nullptr};
}

inline void crash_point(CrashPoint p) {
  CrashHook h = detail::g_crash_hook.load(std::memory_order_relaxed);
  if (h != nullptr) [[unlikely]] h(p);
}

inline constexpr std::size_t kPwbLine = 64;

/// Cache lines spanned by [addr, addr+len) — the unit pwb traffic is
/// counted in.
inline std::uint64_t lines_spanned(std::uintptr_t addr, std::size_t len) {
  if (len == 0) return 0;
  return (addr + len - 1) / kPwbLine - addr / kPwbLine + 1;
}

/// Store fence. Only a compiler barrier is needed: the
/// simulated medium is updated synchronously by pwb, so ordering is the
/// program order of the writeback calls. Counted by the caller.
inline void pfence() { std::atomic_signal_fence(std::memory_order_seq_cst); }

}  // namespace cstm::dur
