// Workload configuration, corpus generation and the timed set-up path
// (XML text in memory -> parsed document -> in-memory index -> file-backed
// disk index -> opened searcher -> ready QueryService).
#ifndef XKS_PERFBENCH_SETUP_H_
#define XKS_PERFBENCH_SETUP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "engine/disk_searcher.h"
#include "engine/xksearch.h"
#include "serve/query_service.h"

namespace perfbench {

enum class Workload { kMemZipf, kDiskPaper, kUpdateSwap };

const char* WorkloadName(Workload w);
bool ParseWorkload(const std::string& name, Workload* out);

/// Everything a run is parameterised by. Sizes come from the workload
/// and from --smoke; the seed drives every request sequence and update
/// batch, while each workload's corpus is fixed (the database under
/// test does not change with the seed).
struct Config {
  Workload workload = Workload::kMemZipf;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string data_dir;
  size_t nproc = 1;

  size_t papers = 0;
  /// Set-up repetitions; setup_s is the median of the quiet ones.
  size_t setup_reps = 3;
  /// Distinct queries in the Zipf pool (mem_zipf, update_swap reads).
  size_t pool_queries = 0;
  double zipf_s = 0.9;
  /// Requests in one round of the seeded sequence. A run repeats whole
  /// rounds until `seconds` have elapsed, so every run does identical
  /// work per round and the per-query counters repeat exactly.
  size_t round_requests = 0;
  /// Requests of the sequence run before timing (warm-up prefix).
  size_t warmup_requests = 0;
  size_t clients = 1;
  size_t workers = 1;
  size_t chunk_workers = 0;
  bool cache = true;
  /// Update batches per round: half move postings, half move them back.
  size_t batches_per_round = 4;
  size_t moves_per_batch = 32;
  /// update_swap reads served between two swaps.
  size_t reads_per_cycle = 0;
  /// Update batches planned for mem_zipf and disk_paper (half forward,
  /// half back), and the fewest cycles they run.
  size_t interleaved_batches = 16;

  std::string Prefix() const { return data_dir + "/index"; }
  /// The copy of the index that mem_zipf's and disk_paper's update
  /// cycles run on, beside the one they serve from.
  std::string CopyPrefix() const { return data_dir + "/updated"; }
};

/// Fills the size fields of `config` for its workload.
void SizeWorkload(Config* config);

/// Keywords planted with a small, exact frequency whose postings the
/// update batches move; small so BruteForceSlca stays cheap as an oracle.
inline constexpr size_t kProbeFamilies = 8;
inline constexpr uint64_t kProbeFrequency = 16;
std::string ProbeKeyword(size_t i);

/// The paper's keyword families planted at fixed frequencies (disk_paper).
struct Family {
  uint64_t frequency;
  std::vector<std::string> names;
};

struct Corpus {
  std::string xml;
  std::vector<Family> families;
};

Corpus MakeCorpus(const Config& config);

/// Per-stage set-up times of one repetition.
struct SetupTimes {
  double parse_s = 0;
  double index_s = 0;
  double disk_build_s = 0;
  double total_s = 0;
};

/// A ready system: the in-memory engine (also the reference), the
/// file-backed searcher and the service in front of the served backend.
struct System {
  std::unique_ptr<xksearch::XKSearch> engine;
  std::unique_ptr<xksearch::DiskSearcher> searcher;
  std::unique_ptr<xksearch::serve::QueryService> service;
  uint64_t il_pages = 0;
  uint64_t scan_pages = 0;
  uint64_t index_bytes = 0;

  /// Tears down in dependency order (service before its backend).
  void Reset();
};

/// Options the file-backed index is opened with (pools sized against the
/// built page counts, timing decorator installed).
xksearch::DiskIndexOptions ServeDiskOptions(const Config& config,
                                            uint64_t il_pages,
                                            uint64_t scan_pages, IoStats* io);

xksearch::serve::QueryServiceOptions ServiceOptions(const Config& config);

/// A QueryService over the workload's served backend.
std::unique_ptr<xksearch::serve::QueryService> MakeService(
    const Config& config, const System& system);

/// Flushes the built index files, so kernel writeback of the build does
/// not overlap the timed phase (untimed; the build syncs most of it).
void SyncIndexFiles(const std::string& prefix);

/// Copies the index files at `from` to `to` (durably; any log at `to`
/// is removed), untimed.
void CopyIndex(const std::string& from, const std::string& to);

/// One timed set-up from XML text to a ready service.
SetupTimes Setup(const Config& config, const Corpus& corpus, IoStats* io,
                 System* out);

}  // namespace perfbench

#endif  // XKS_PERFBENCH_SETUP_H_
