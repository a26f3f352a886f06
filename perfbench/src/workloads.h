// Entry point of the benchmark's workloads (see workloads.cc).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perfbench/src/harness.h"

namespace perfbench {

/// Command-line settings of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  ///< stream time replayed, in wall seconds
  bool trace = false;   ///< also run the traced half and report per-layer
  std::string out_dir;  ///< spans and checkpoints go here
};

/// Runs `opt.workload` and fills `report`. Returns a process exit code
/// (non-zero only for usage errors; measured failures live in `report`).
int RunWorkload(const RunOptions& opt, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
