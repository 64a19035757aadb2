// txbatch merge-factor sweep: replays the vacation-low and intruder request
// streams through txbatch::Batcher at batch sizes {1, 4, 16, 64} (or a
// single size via --batch N) and reports throughput next to the
// capture-hit-rate% that explains it. With --json this writes the
// BENCH_txbatch.json record: one row per app and merge factor (config
// "batch-N"), in the harness record schema (src/harness/experiment.hpp).
#include "harness/experiment.hpp"

int main(int argc, char** argv) {
  auto opt = cstm::harness::parse_options(argc, argv);
  cstm::harness::txbatch_stream(opt);
  return 0;
}
