// Reproduces Figure 9: portion of read (a) and write (b) barriers removed
// by tree / array / filter runtime capture analysis and by the compiler
// capture analysis.
// With --json this writes the "fig9" record (harness record schema,
// src/harness/experiment.hpp).
#include "harness/experiment.hpp"

int main(int argc, char** argv) {
  auto opt = cstm::harness::parse_options(argc, argv);
  cstm::harness::fig9_removed(opt);
  return 0;
}
