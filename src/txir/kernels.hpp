// txir encodings of representative STAMP transactional kernels.
//
// The execution-side code (src/stamp, src/containers) tags each access
// site with a Site whose `verdict` field records what the static capture
// analysis proved about it. These kernels are the analysis-side
// justification: tests run the capture analysis over them and cross-check
// that every verdict the execution side bakes into a Site constant is the
// verdict the analysis actually derives — and that every site the analysis
// refuses (publication, aliasing, escape) keeps its barrier.
//
// The kernel set covers the paper's Figure 1 patterns plus the shapes that
// exercise each analysis feature — with the real control flow, not a
// linearized approximation: vacation's reservation check is a genuine
// branch diamond (attach-to-tree on one path, in-place cancellation on the
// other), genome's segment dedup walks its bucket chain in a block-param
// loop before the found/not-found diamond, and the vector grow-and-copy of
// Figure 1(b) has the real grow branch plus a cursor-advancing copy loop,
// lowered through an allocator helper that inlining proves captured.
// Several sites in these kernels are provable ONLY under path-sensitive
// analysis (see the expectation table's comments) — they are the
// regression guard for the CFG dataflow.
#pragma once

#include <string>
#include <vector>

#include "txir/capture_analysis.hpp"
#include "txir/ir.hpp"

namespace cstm::txir {

/// Builds the kernel program (entry functions listed in the expectation
/// table plus the helpers they call, such as the vector allocator).
Program stamp_kernels();

/// Expected analysis outcome for one site label of one kernel entry.
struct SiteExpectation {
  std::string site;
  Verdict verdict;  // expected site_verdict
  bool elidable;    // expected site_elidable (direction rules applied)
  bool demoted;     // expected site_demoted
};

/// Every site of one entry, as analyze(program, entry) sees it — callee
/// sites exposed by inlining included.
struct KernelExpectation {
  std::string entry;
  std::vector<SiteExpectation> sites;
};

/// Ground truth table used by tests, one row per entry.
std::vector<KernelExpectation> stamp_kernel_expectations();

/// Per-kernel analysis precision under analyze(program, entry): the
/// numbers behind the precision table.
struct KernelReport {
  std::string entry;
  AnalysisStats stats;
  std::size_t loads = 0;
  std::size_t stores = 0;
  std::size_t elided_accesses = 0;
};

std::vector<KernelReport> stamp_kernel_reports();

/// The formatted "sites total / proven / demoted" table: the generated
/// header's comment block, `txir_sitegen --report` and the
/// compiler_analysis example print it.
std::string kernel_report_table();

}  // namespace cstm::txir
