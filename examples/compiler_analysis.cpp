// Static capture analysis demo: builds the paper's Figure 1 code patterns
// (and the STAMP kernels that ride on them) in txir, inlines each entry's
// calls and runs the flow-sensitive analysis, and prints the verdict of
// every STM barrier plus the per-kernel proven/demoted elision table.
#include <cstdio>

#include "txir/capture_analysis.hpp"
#include "txir/ir.hpp"
#include "txir/kernels.hpp"

int main() {
  using namespace cstm::txir;
  const Program program = stamp_kernels();

  std::printf("txir static capture analysis (paper Section 3.2)\n");
  std::printf("================================================\n\n");

  const char* entries[] = {"list_insert", "iter_loop", "vacation_update_add",
                           "vacation_reserve", "genome_dedup_insert",
                           "vector_grow_push"};
  for (const char* entry : entries) {
    const AnalysisResult result = analyze(program, entry);
    std::printf("%s:\n", entry);
    for (const AccessVerdict& b : result.barriers) {
      std::printf("  %-6s %-28s -> %-8s%s\n", b.is_store ? "store" : "load",
                  b.site.c_str(), cstm::verdict_name(b.verdict),
                  b.elidable()   ? " (ELIDED)"
                  : b.demoted    ? " (demoted: keep barrier)"
                                 : " (keep barrier)");
    }
    std::printf("  elided: %zu/%zu loads, %zu/%zu stores\n\n",
                result.elided(false), result.total(false),
                result.elided(true), result.total(true));
  }

  std::printf("per-kernel analysis precision:\n%s\n",
              kernel_report_table().c_str());

  std::printf("IR of vector_grow_push after inlining the vector allocator:\n");
  const Function* f = program.find("vector_grow_push");
  std::printf("%s\n", to_string(inline_calls(program, *f)).c_str());
  return 0;
}
