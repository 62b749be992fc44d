#include "setup.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "gen/dblp_generator.h"
#include "xml/parser.h"

namespace perfbench {

using xksearch::DiskIndex;
using xksearch::DiskIndexOptions;
using xksearch::DiskSearcher;
using xksearch::Document;
using xksearch::Result;
using xksearch::XKSearch;
using xksearch::serve::QueryService;
using xksearch::serve::QueryServiceOptions;

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kMemZipf:
      return "mem_zipf";
    case Workload::kDiskPaper:
      return "disk_paper";
    case Workload::kUpdateSwap:
      return "update_swap";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w :
       {Workload::kMemZipf, Workload::kDiskPaper, Workload::kUpdateSwap}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

void SizeWorkload(Config* c) {
  const bool s = c->smoke;
  c->setup_reps = s ? 1 : 3;
  switch (c->workload) {
    case Workload::kMemZipf:
      // Serve work only: two closed-loop clients, two workers, result
      // cache sized for the Zipf head, hot lists and single-flight on.
      c->papers = s ? 3000 : 100000;
      c->pool_queries = s ? 256 : 4096;
      c->round_requests = s ? 600 : 10000;
      c->warmup_requests = s ? 300 : 10000;
      c->clients = std::max<size_t>(1, std::min<size_t>(2, c->nproc / 2));
      c->workers = c->clients;
      c->cache = true;
      break;
    case Workload::kDiskPaper:
      // Storage, decode and the match loop: one client, one worker, no
      // result cache, chunked SLCA on the remaining cores.
      c->papers = s ? 4000 : 100000;
      c->round_requests = s ? 40 : 112;
      c->warmup_requests = s ? 20 : 224;
      c->clients = 1;
      c->workers = 1;
      c->chunk_workers = c->nproc > 1 ? c->nproc - 1 : 0;
      c->cache = false;
      break;
    case Workload::kUpdateSwap:
      // The write path: one reader client and one worker, one writer.
      c->papers = s ? 2000 : 20000;
      c->setup_reps = s ? 1 : 9;  // a set-up takes a third of a second
      c->pool_queries = s ? 128 : 1024;
      c->reads_per_cycle = s ? 100 : 3000;
      c->round_requests = c->reads_per_cycle * c->batches_per_round;
      c->warmup_requests = s ? 100 : 3000;
      c->moves_per_batch = s ? 8 : 32;
      c->clients = 1;
      c->workers = 1;
      c->cache = true;
      break;
  }
}

std::string ProbeKeyword(size_t i) { return "kupd" + std::to_string(i); }

namespace {

// Distinct keywords planted per paper frequency class: rare classes are
// cheap, and Fig 9 shapes need up to four distinct lists of the largest.
size_t VariantsFor(uint64_t frequency) {
  if (frequency <= 100) return 10;
  if (frequency <= 1000) return 6;
  if (frequency <= 10000) return 5;
  return 4;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

}  // namespace

Corpus MakeCorpus(const Config& config) {
  xksearch::DblpOptions gen;
  gen.papers = config.papers;
  Corpus corpus;
  for (size_t i = 0; i < kProbeFamilies; ++i) {
    gen.plants.push_back({ProbeKeyword(i), kProbeFrequency});
  }
  if (config.workload == Workload::kDiskPaper) {
    // The paper's evaluation corpus: DBLP-shaped, keyword families at the
    // swept frequencies 10 ... 100,000 (clamped to the paper count).
    gen.venues = 25;
    gen.years_per_venue = 20;
    gen.seed = 20050614;
    for (uint64_t frequency : {10, 100, 1000, 10000, 100000}) {
      const uint64_t effective =
          std::min<uint64_t>(frequency, static_cast<uint64_t>(config.papers));
      Family family{frequency, {}};
      for (size_t i = 0; i < VariantsFor(frequency); ++i) {
        std::string name =
            "kwf" + std::to_string(frequency) + "n" + std::to_string(i);
        gen.plants.push_back({name, effective});
        family.names.push_back(std::move(name));
      }
      corpus.families.push_back(std::move(family));
    }
  } else {
    // Zipf-shaped background text, so the frequency table has a long
    // tail for the query pool to draw from.
    gen.seed = config.workload == Workload::kMemZipf ? 1234 : 4321;
    gen.zipf_exponent = 1.0;
  }
  Result<Document> doc = xksearch::GenerateDblp(gen);
  CheckOk(doc.status(), "GenerateDblp");
  corpus.xml = xksearch::SerializeXml(*doc);
  return corpus;
}

void SyncIndexFiles(const std::string& prefix) {
  for (const char* ext : {".il", ".scan", ".dict"}) {
    const int fd = ::open((prefix + ext).c_str(), O_RDONLY);
    if (fd < 0) continue;
    ::fsync(fd);
    ::close(fd);
  }
}

void CopyIndex(const std::string& from, const std::string& to) {
  std::remove((to + ".wal").c_str());
  for (const char* ext : {".il", ".scan", ".dict"}) {
    std::ifstream in(from + ext, std::ios::binary);
    std::ofstream out(to + ext, std::ios::binary | std::ios::trunc);
    out << in.rdbuf();
    if (!in.good() || !out.good()) {
      std::fprintf(stderr, "perfbench: cannot copy %s%s\n", from.c_str(), ext);
      std::exit(3);
    }
  }
  SyncIndexFiles(to);
}

void System::Reset() {
  service.reset();
  searcher.reset();
  engine.reset();
}

namespace {

/// Wraps every page store an index opens in a TimingStore.
void InstallTiming(DiskIndexOptions* options, IoStats* io) {
  options->store_decorator = [io](std::unique_ptr<xksearch::PageStore> store,
                                  std::string_view name)
      -> std::unique_ptr<xksearch::PageStore> {
    return std::make_unique<TimingStore>(std::move(store), &io->For(name),
                                         io->tracer);
  };
}

}  // namespace

DiskIndexOptions ServeDiskOptions(const Config& config, uint64_t il_pages,
                                  uint64_t scan_pages, IoStats* io) {
  DiskIndexOptions options;
  if (config.workload == Workload::kMemZipf) {
    // The whole index fits the pools: storage is off mem_zipf's path.
    options.il_pool_pages = il_pages + 64;
    options.scan_pool_pages = scan_pages + 64;
  } else {
    // An eighth of the index: the working set is larger than the cache.
    options.il_pool_pages = std::max<uint64_t>(64, il_pages / 8);
    options.scan_pool_pages = std::max<uint64_t>(64, scan_pages / 8);
  }
  InstallTiming(&options, io);
  return options;
}

QueryServiceOptions ServiceOptions(const Config& config) {
  QueryServiceOptions options;
  options.pool.workers = config.workers;
  options.pool.queue_capacity = 1024;
  options.enable_cache = config.cache;
  if (config.workload == Workload::kMemZipf) {
    // Holds about the Zipf head of the pool, so the tail keeps missing.
    options.cache.capacity_bytes = config.smoke ? (64u << 10) : (2u << 20);
    options.hot_list_bytes = config.smoke ? (256u << 10) : (8u << 20);
  } else {
    options.cache.capacity_bytes = 2u << 20;
  }
  options.slca_chunk.workers = config.chunk_workers;
  return options;
}

std::unique_ptr<QueryService> MakeService(const Config& config,
                                          const System& system) {
  const QueryServiceOptions options = ServiceOptions(config);
  if (config.workload == Workload::kMemZipf) {
    return std::make_unique<QueryService>(system.engine.get(), options);
  }
  return std::make_unique<QueryService>(system.searcher.get(), options);
}

SetupTimes Setup(const Config& config, const Corpus& corpus, IoStats* io,
                 System* out) {
  out->Reset();
  const std::string prefix = config.Prefix();
  SetupTimes times;
  const Clock::time_point t0 = Clock::now();
  Result<Document> doc = xksearch::ParseXml(corpus.xml);
  CheckOk(doc.status(), "ParseXml");
  const Clock::time_point t1 = Clock::now();
  Result<std::unique_ptr<XKSearch>> engine =
      XKSearch::BuildFromDocument(std::move(*doc));
  CheckOk(engine.status(), "XKSearch::BuildFromDocument");
  out->engine = std::move(*engine);
  const Clock::time_point t2 = Clock::now();
  {
    DiskIndexOptions build;
    InstallTiming(&build, io);
    Result<std::unique_ptr<DiskIndex>> disk =
        DiskIndex::Build(out->engine->index(), prefix, build);
    CheckOk(disk.status(), "DiskIndex::Build");
    out->il_pages = (*disk)->il_page_count();
    out->scan_pages = (*disk)->scan_page_count();
    // Leaving the scope closes the build's files before anything reads.
  }
  const Clock::time_point t3 = Clock::now();
  Result<std::unique_ptr<DiskSearcher>> searcher = DiskSearcher::Open(
      prefix, ServeDiskOptions(config, out->il_pages, out->scan_pages, io));
  CheckOk(searcher.status(), "DiskSearcher::Open");
  out->searcher = std::move(*searcher);
  out->service = MakeService(config, *out);
  const Clock::time_point t4 = Clock::now();
  out->index_bytes = FileBytes(prefix + ".il") + FileBytes(prefix + ".scan") +
                     FileBytes(prefix + ".dict");
  times.parse_s = Seconds(t1 - t0);
  times.index_s = Seconds(t2 - t1);
  times.disk_build_s = Seconds(t3 - t2);
  times.total_s = Seconds(t4 - t0);
  return times;
}

}  // namespace perfbench
