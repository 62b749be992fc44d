// Serving benchmark for the XKSearch engine.
//
//   xks_perfbench --workload mem_zipf|disk_paper|update_swap --seed N
//                 --seconds S --trace 0|1 --data-dir DIR [--smoke]
//
// Prints one JSON line with the machine and workload facts ({"env": ...})
// and, last, the result: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, from a separate run that records spans around the
// benchmark's own calls into each module. Exits 1 when an answer or a
// deterministic counter differs from its reference.
#include <sched.h>
#include <sys/statfs.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return 1;
}

std::string FsType(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994:
      return "tmpfs";
    case 0xEF53:
      return "ext4";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x794c7630:
      return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: xks_perfbench --workload mem_zipf|disk_paper|"
               "update_swap --seed N --seconds S --trace 0|1 --data-dir DIR "
               "[--smoke]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Config config;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      config.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--data-dir" && has_value) {
      config.data_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!ParseWorkload(workload, &config.workload) || config.data_dir.empty() ||
      !(config.seconds > 0)) {
    return Usage();
  }
  config.nproc = Nproc();
  SizeWorkload(&config);

  const Report report = RunBenchmark(config);
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "perfbench: WRONG: %s\n", e.c_str());
  }

#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::string env = "{\"env\": {\"workload\": " + JsonString(workload) +
                    ", \"seed\": " + std::to_string(config.seed) +
                    ", \"seconds\": " + std::to_string(config.seconds) +
                    ", \"trace\": " + (config.trace ? "1" : "0") +
                    ", \"smoke\": " + (config.smoke ? "true" : "false") +
                    ", \"nproc\": " + std::to_string(config.nproc) +
                    ", \"build_type\": " +
                    JsonString(XKS_PERFBENCH_BUILD_TYPE) +
                    ", \"ndebug\": " + (ndebug ? "true" : "false") +
                    ", \"data_fs\": " + JsonString(FsType(config.data_dir)) +
                    ", \"requests\": {\"attempted\": " +
                    std::to_string(report.attempted) +
                    ", \"succeeded\": " + std::to_string(report.succeeded) +
                    ", \"failed\": " + std::to_string(report.failed) +
                    ", \"rejected\": " + std::to_string(report.rejected) + "}";
  for (const auto& [key, value] : report.env) {
    env += ", " + JsonString(key) + ": " + value;
  }
  std::printf("%s}}\n", env.c_str());

  bool finite = true;
  std::string metrics;
  for (const Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) finite = false;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    metrics += (metrics.empty() ? "" : ", ") + JsonString(m.name) +
               ": {\"value\": " + value + ", \"unit\": " + JsonString(m.unit) +
               "}";
  }
  const bool correct = report.correct && finite && ndebug;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed + report.rejected),
      metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
