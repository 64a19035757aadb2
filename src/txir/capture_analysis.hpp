// Static capture analysis over TxIR (paper Section 3.2, grown from the
// paper's flow-insensitive two-point analysis into the pipeline that feeds
// the typed API's Site verdicts).
//
// Like the paper's compiler, the analysis is intraprocedural and sees
// across calls only by inlining: known callees are spliced into the entry
// function (kInlineDepth levels, ir.hpp), and every call left after that
// is opaque. The analysis is flow- and path-sensitive: a worklist
// dataflow over the function's basic blocks. Each block has an IN abstract
// state (per-value abstract pointers, per-allocation-site field cells, and
// the set of allocation sites that may already be published on some path
// reaching the block); the transfer function executes the block and pushes
// the OUT state along each CFG edge, binding branch arguments to the
// target's block parameters. States from multiple predecessors JOIN at the
// target (pointwise value join, field-cell join, publication-set union),
// so a store that publishes a captured pointer on one branch demotes
// accesses at and after the merge but leaves the non-publishing branch's
// own accesses proven. Loops need no special casing: publication inside a
// loop body flows around the back-edge into the loop head's IN state and
// the worklist iterates to a fixpoint (the lattice is finite and all
// transfer functions are monotone) — which is exactly the loop-carried
// publication rule the old linear IR approximated with a phi-back-edge
// textual check. Irreducible CFGs (multi-entry loops) degrade
// conservatively through the same join: merged states only ever grow.
//
// Per value the engine tracks an abstract pointer: a capture class plus
// the set of allocation sites it may point into; per captured/stack
// allocation site it additionally tracks the abstract contents of each
// field (so a pointer stored into captured memory and loaded back keeps
// its classification). Each load/store access site receives a Verdict
// from the same lattice the runtime Site descriptors use (stm/site.hpp):
//
//   kCaptured — heap memory allocated since the transaction started
//   kStack    — a stack slot created inside the atomic block
//   kStatic   — immutable static data (read elision only)
//   kPrivate  — an annotation-registered thread-private block
//   kUnknown  — everything else: the barrier stays
//
// Conservatism rules (each is a soundness requirement for *static* elision,
// which compiles to a plain access with zero runtime probes and therefore
// has no fallback when the proof is wrong):
//
//  * Publication: storing a captured pointer into memory that may be
//    shared (an unknown base, an already-published object) or passing it
//    to an opaque call publishes the allocation site — transitively
//    through anything stored inside it — and every access through it
//    *after* that program point is demoted to kUnknown. The
//    runtime filters (alloc log, stack range) keep eliding such accesses;
//    only the static proof is withdrawn. Flow-sensitivity is what keeps
//    the common STAMP shape (initialize fields, then link) fully proven:
//    the inits precede the publication on every path that reaches them.
//  * Alias merges: a block parameter (phi) joining captured and unknown
//    inputs is unknown.
//  * Loads: a value loaded from shared, published, static, or private
//    memory is opaque (the bits could be any pointer). Loads from
//    *unpublished* captured memory return the join of everything stored
//    into that site's field.
//  * Calls: a call that inlining left in place (unknown callee,
//    recursion, or deeper than kInlineDepth) is opaque. It publishes every
//    argument with everything reachable from it, which also covers the
//    callee storing through pointers it loads out of them (no load reads
//    a published site's fields), and returns an unknown value.
//
// Accesses whose pointer had captured/stack provenance but lost the proof
// to one of these rules are reported as "demoted" — the analysis-precision
// number the harness prints per kernel (sites total / proven / demoted).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "stm/site.hpp"
#include "txir/ir.hpp"

namespace cstm::txir {

/// One load/store access site occurrence (blocks in reverse postorder,
/// body order within a block; unreachable blocks are not analyzed).
struct AccessVerdict {
  std::string site;  // site label of the load/store
  bool is_store = false;
  Verdict verdict = Verdict::kUnknown;
  /// The pointer had tx-local provenance but publication/alias/escape
  /// conservatism withdrew the static proof (barrier kept).
  bool demoted = false;

  /// Whether the compiler deletes this barrier (stores to static data keep
  /// theirs — mirroring Site::read_elidable/write_elidable).
  bool elidable() const {
    if (verdict == Verdict::kUnknown) return false;
    if (is_store && verdict == Verdict::kStatic) return false;
    return true;
  }
};

/// Site-level aggregate over unique site labels.
struct AnalysisStats {
  std::size_t sites_total = 0;
  std::size_t proven = 0;   // every occurrence elidable
  std::size_t demoted = 0;  // not proven, and conservatism (not ignorance)
                            // is what kept at least one occurrence
};

struct AnalysisResult {
  std::vector<AccessVerdict> barriers;  // one per reachable load/store, in
                                        // RPO-block / body order

  /// The verdict all occurrences of the named site agree on (kUnknown when
  /// the site never appears or occurrences disagree).
  Verdict site_verdict(const std::string& site) const;
  /// True iff the named site appears and every occurrence is elidable.
  bool site_elidable(const std::string& site) const;
  /// True iff the named site keeps its barrier due to demotion.
  bool site_demoted(const std::string& site) const;

  AnalysisStats stats() const;

  std::size_t total(bool stores) const {
    std::size_t n = 0;
    for (const auto& b : barriers) n += (b.is_store == stores);
    return n;
  }
  std::size_t elided(bool stores) const {
    std::size_t n = 0;
    for (const auto& b : barriers) n += (b.is_store == stores && b.elidable());
    return n;
  }
};

/// Analyzes a single function as written: every call is opaque.
AnalysisResult analyze(const Function& f);

/// analyze(inline_calls(p, entry)): the paper's configuration, and the one
/// the generated Site verdicts come from. An entry not in @p p yields an
/// empty result.
AnalysisResult analyze(const Program& p, const std::string& entry);

}  // namespace cstm::txir
