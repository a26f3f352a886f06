// Sharon benchmark harness. Usage:
//
//   sharon_perfbench --workload <lr_sparse|drift_control|plan_scale>
//                    --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//
// Prints a human-readable report and, as the last line of standard
// output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// perfbench/run.py builds this binary from source and runs it.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "perfbench/src/workloads.h"

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  opt.out_dir = ".";
  if (argc % 2 == 0) {
    std::fprintf(stderr, "every flag takes one value\n");
    return 2;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(key, "--workload") == 0) {
      opt.workload = value;
    } else if (std::strcmp(key, "--seed") == 0) {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(key, "--seconds") == 0) {
      opt.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(key, "--trace") == 0) {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(key, "--out-dir") == 0) {
      opt.out_dir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key);
      return 2;
    }
  }
  if (opt.workload.empty() || opt.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  std::filesystem::create_directories(opt.out_dir);
  perfbench::Report report;
  const int code = perfbench::RunWorkload(opt, &report);
  if (code != 0) return code;
  perfbench::PrintReport(report, opt.workload, opt.trace);
  return 0;
}
