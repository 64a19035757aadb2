// Reproduces Figure 10: single-thread performance impact of the runtime
// configurations (stack+heap R+W, stack+heap W-only, heap W-only) and the
// compiler optimization, relative to baseline. With --json this writes the
// BENCH_fig10.json record: a baseline row plus one row per config for each
// app, in the harness record schema (src/harness/experiment.hpp).
#include "harness/experiment.hpp"

int main(int argc, char** argv) {
  auto opt = cstm::harness::parse_options(argc, argv);
  cstm::harness::fig10_single_thread(opt);
  return 0;
}
