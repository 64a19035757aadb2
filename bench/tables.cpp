// Reproduces Tables 1 and 2 from one set of runs: the abort-to-commit ratio
// and the percent relative standard deviation over at least 5 runs, at 16
// threads, for the baseline, tree, array, filtering and compiler
// configurations. With --json this writes the "tables" record (harness
// record schema, src/harness/experiment.hpp).
#include "harness/experiment.hpp"

int main(int argc, char** argv) {
  auto opt = cstm::harness::parse_options(argc, argv);
  cstm::harness::tables(opt);
  return 0;
}
