// End-to-end benchmark of the TPStream production path: WAL append ->
// reorder -> derive -> match -> emit, on three workloads. See README.md
// in this directory; perfbench/run.py builds and runs it.
//
//   tpbench --workload synth_dense|many_rules|keyed_parallel
//           --seed N --seconds S [--smoke]
//   tpbench_traced ... (same flags): the per-layer ledger instead.
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workload.h"

int main(int argc, char** argv) {
  tpbench::RunConfig config;
#ifdef TPBENCH_TRACED
  config.trace = true;
#endif
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::atoi(argv[++i]);
    } else if (arg == "--smoke") {
      config.smoke = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (config.seconds < 1) {
    std::fprintf(stderr, "--seconds must be at least 1\n");
    return 2;
  }
  std::unique_ptr<tpbench::Workload> workload;
  if (config.workload == "synth_dense") {
    workload = tpbench::MakeSynthDense();
  } else if (config.workload == "many_rules") {
    workload = tpbench::MakeManyRules();
  } else if (config.workload == "keyed_parallel") {
    workload = tpbench::MakeKeyedParallel();
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return 2;
  }
  return tpbench::RunWorkload(*workload, config);
}
