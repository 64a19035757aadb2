// Durable-mode cost across STAMP: non-durable reference vs durable with
// capture elision vs durable with capture disabled, plus the
// flushes-elided% / pwb counts that explain the gap. With --json this
// writes the BENCH_durable.json record: nondurable, durable and
// durable-nocapture rows per app, in the harness record schema
// (src/harness/experiment.hpp).
#include "harness/experiment.hpp"

int main(int argc, char** argv) {
  auto opt = cstm::harness::parse_options(argc, argv);
  cstm::harness::durable_sweep(opt);
  return 0;
}
