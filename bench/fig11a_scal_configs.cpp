// Reproduces Figure 11(a): improvement over baseline at 16 threads for the
// runtime (tree) configurations and the compiler optimization. With --json
// this writes the BENCH_fig11a.json record (harness record schema,
// src/harness/experiment.hpp).
//
// With --scaling, runs the thread-count sweep instead (1,2,4,...,--threads):
// one row per app x config x thread count, the BENCH_scaling.json record for
// a multi-core box to commit.
#include <cstring>
#include <vector>

#include "harness/experiment.hpp"

int main(int argc, char** argv) {
  bool scaling = false;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scaling") == 0) {
      scaling = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  auto opt = cstm::harness::parse_options(static_cast<int>(args.size()),
                                          args.data());
  if (scaling) {
    cstm::harness::fig11a_scaling(opt);
  } else {
    cstm::harness::fig11a_configs(opt);
  }
  return 0;
}
