// Reproduces Figure 8: breakdown of compiler-inserted STM barriers into
// captured-heap / captured-stack / not-required / required, at one thread,
// for reads (a), writes (b) and all accesses (c).
// With --json this writes the "fig8" record (harness record schema,
// src/harness/experiment.hpp).
#include "harness/experiment.hpp"

int main(int argc, char** argv) {
  auto opt = cstm::harness::parse_options(argc, argv);
  cstm::harness::fig8_breakdown(opt);
  return 0;
}
