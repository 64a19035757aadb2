// Adaptive capture-log selection vs the three hand-picked structures
// (runtime heap-W family) across all STAMP apps, with a per-app profile of
// the online policy's decisions. With --json this writes the
// BENCH_adaptive.json record: a baseline row plus one row per structure for
// each app, in the harness record schema (src/harness/experiment.hpp).
// --capture-log restricts the sweep to one column.
#include "harness/experiment.hpp"

int main(int argc, char** argv) {
  auto opt = cstm::harness::parse_options(argc, argv);
  cstm::harness::adaptive_sweep(opt);
  return 0;
}
