// Reproduces Figure 11(b): improvement over baseline at 16 threads for the
// three allocation-log data structures (write-only, heap-only checks) and
// the compiler optimization. With --json this writes the BENCH_fig11b.json
// record: a baseline row plus one row per config for each app, in the
// harness record schema (src/harness/experiment.hpp).
#include "harness/experiment.hpp"

int main(int argc, char** argv) {
  auto opt = cstm::harness::parse_options(argc, argv);
  cstm::harness::fig11b_structures(opt);
  return 0;
}
