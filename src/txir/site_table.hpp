// The analysis→codegen bridge: the declarative table of every
// execution-side Site constant (containers, STAMP apps) together with the
// kernel-corpus evidence that justifies its verdict, and the emitter that
// renders `generated/site_verdicts.hpp` from it.
//
// Before this table existed, the Site verdicts in the container/STAMP
// headers were hand-authored and merely cross-checked against the analysis
// by tests — the analysis was an oracle that never drove shipped code.
// Now the pipeline is:
//
//   kernel corpus (kernels.cpp)
//        │ analyze(program, entry)             — inline, then analyze (§3.2)
//        ▼
//   site_specs() evidence rows ──► resolved Verdict per Site constant
//        │ render_site_verdicts_header()       — deterministic text
//        ▼
//   generated/site_verdicts.hpp                — committed, single source
//        │ #include                              of truth for Site verdicts
//        ▼
//   tfield/tvar Sites ──► BarrierPlan static elision at runtime
//
// `txir_sitegen` (tools/) runs this emitter at build time; its `--check`
// mode is the staleness gate (ctest `sitegen_check`, CI `codegen-drift`):
// the committed header must be byte-identical to a fresh render, so an
// analysis improvement, a corpus widening, or a hand edit of the generated
// file all turn CI red until the header is regenerated. Widening the
// kernel corpus therefore raises shipped elision% directly — new proofs
// flow into the Site constants the barrier plans consult.
//
// Evidence semantics per row:
//  * entry + kernel_site name a load/store site label in the corpus; the
//    emitted verdict is what `analyze(program, entry)` derives for it.
//    Rows whose kernel shape is shared (tree probes, accumulator bumps)
//    legitimately resolve to kUnknown — the barrier stays, and that *is*
//    the analysis result.
//  * an empty entry means "no kernel models this site": the emitter writes
//    the conservative kUnknown and says so. These rows are the corpus
//    backlog — modeling one in kernels.cpp upgrades it automatically.
#pragma once

#include <string>
#include <vector>

#include "stm/site.hpp"
#include "txir/kernels.hpp"

namespace cstm::txir {

/// One execution-side Site constant and its analysis evidence.
struct SiteSpec {
  std::string ns;           // namespace inside ::cstm ("list_sites",
                            // "stamp::vacation_sites", ...)
  std::string constant;     // C++ constant name ("kIter")
  std::string site_name;    // Site::name ("list.iter")
  bool manual = true;       // Site::manual (original STAMP hand barrier)
  std::string entry;        // kernel entry function; "" = no evidence
  std::string kernel_site;  // site label inside that kernel
  std::string comment;      // one-line rationale emitted above the constant
};

/// The full execution-side Site inventory, in emission order (container
/// groups first, then the STAMP apps). Ordering is part of the generated
/// header's determinism contract — append, don't sort.
std::vector<SiteSpec> site_specs();

struct ResolvedSite {
  SiteSpec spec;
  Verdict verdict = Verdict::kUnknown;
};

/// Runs the capture analysis (analyze(program, entry), the paper's
/// configuration) over @p program and resolves every spec's verdict. Specs with evidence
/// naming an entry or site label absent from the corpus are reported in
/// @p errors (one message each) and resolve to kUnknown — `txir_sitegen`
/// refuses to emit a header when @p errors is non-empty.
std::vector<ResolvedSite> resolve_site_verdicts(
    const Program& program, const std::vector<SiteSpec>& specs,
    std::vector<std::string>* errors);

/// Convenience: the canonical corpus + canonical spec table.
std::vector<ResolvedSite> resolve_site_verdicts(
    std::vector<std::string>* errors);

/// Renders the complete generated header (preamble, per-kernel precision
/// table as a comment block, one namespace per site group). Deterministic:
/// same corpus + same specs => byte-identical output, no timestamps.
std::string render_site_verdicts_header(
    const std::vector<ResolvedSite>& resolved);

/// Canonical render: resolve_site_verdicts() over the real corpus.
/// Aborts with the resolution errors on an invalid spec table (the tests
/// and the sitegen tool surface them first).
std::string render_site_verdicts_header();

/// Line-based diff (LCS) of @p expected vs @p actual, unified-diff style
/// ("-" = expected/regenerated line missing from actual, "+" = stale line
/// only in actual). Empty result iff the inputs are identical. Used by
/// `txir_sitegen --check` so the CI drift log shows exactly which verdicts
/// moved.
std::vector<std::string> diff_lines(const std::string& expected,
                                    const std::string& actual);

}  // namespace cstm::txir
