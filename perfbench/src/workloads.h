// The three workloads and the report a run produces.
#ifndef XKS_PERFBENCH_WORKLOADS_H_
#define XKS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "setup.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  /// False when any answer or counter differed from its reference.
  bool correct = true;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;
  /// End-to-end metrics without --trace, per-layer metrics with it.
  std::vector<Metric> metrics;
  /// Machine and workload facts a later run is checked against.
  std::vector<std::pair<std::string, std::string>> env;
};

Report RunBenchmark(const Config& config);

}  // namespace perfbench

#endif  // XKS_PERFBENCH_WORKLOADS_H_
