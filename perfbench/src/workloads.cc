#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "common/rng.h"
#include "engine/query_executor.h"
#include "gen/query_sampler.h"
#include "index/tokenizer.h"
#include "slca/brute_force.h"
#include "slca/parallel.h"

namespace perfbench {

using xksearch::DeweyId;
using xksearch::DiskIndexUpdater;
using xksearch::DiskSearcher;
using xksearch::PreparedQuery;
using xksearch::QueryStats;
using xksearch::Result;
using xksearch::Rng;
using xksearch::SearchOptions;
using xksearch::SearchResult;
using xksearch::SlcaAlgorithm;
using xksearch::XKSearch;
using xksearch::serve::QueryResponse;
using xksearch::serve::QueryService;
using xksearch::serve::ThreadPool;

namespace {

using Query = std::vector<std::string>;

/// What a query must return: the reference answer and the paper's
/// deterministic counters.
struct Expected {
  std::vector<DeweyId> nodes;
  uint64_t match_ops = 0;
  uint64_t postings_read = 0;
  uint64_t results = 0;
};

/// Correctness ledger shared by every thread of a run.
class Gate {
 public:
  void Fail(const std::string& message) {
    std::lock_guard<std::mutex> lock(mu_);
    ok_ = false;
    if (errors_.size() < 8) errors_.push_back(message);
  }
  bool ok() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ok_;
  }
  std::vector<std::string> errors() const {
    std::lock_guard<std::mutex> lock(mu_);
    return errors_;
  }

 private:
  mutable std::mutex mu_;
  bool ok_ = true;
  std::vector<std::string> errors_;
};

std::string QueryText(const Query& q) {
  std::string out;
  for (const std::string& k : q) out += (out.empty() ? "" : " ") + k;
  return out;
}

/// Inverse-CDF sampler over ranks 0..n-1 with weight 1/(rank+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  uint32_t Sample(Rng* rng) const {
    const double u = rng->UniformDouble();
    const size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return static_cast<uint32_t>(std::min(i, cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// Query pools and request sequences.

/// Distinct two-keyword queries with frequencies in {20..400}, the
/// paper's core shape. The update probe keywords are excluded so a read
/// answer never changes while batches move their postings.
std::vector<Query> ZipfPool(const XKSearch& engine, size_t count, Rng* rng) {
  xksearch::QuerySampler sampler(engine.index());
  std::vector<Query> pool;
  std::set<Query> seen;
  for (int attempt = 0; attempt < 64 && pool.size() < count; ++attempt) {
    for (Query& q : sampler.SampleQueries(rng, count, {20, 400}, 0.9)) {
      if (q.size() != 2 || pool.size() >= count) continue;
      if (q[0].rfind("kupd", 0) == 0 || q[1].rfind("kupd", 0) == 0) continue;
      Query canonical = q;
      std::sort(canonical.begin(), canonical.end());
      if (canonical[0] == canonical[1]) continue;
      if (seen.insert(std::move(canonical)).second) {
        pool.push_back(std::move(q));
      }
    }
  }
  return pool;
}

/// The paper's query shapes over the planted families: Fig 8/11 (two
/// keywords, skewed), Fig 9/12 (k = 3..5 with one rare list) and Fig
/// 10/13 (equal frequencies). Shape instance n takes variants n, n+1, ...
/// of each family, so the pool is the same for every seed (the seed
/// orders it): which variant lists a seed happened to draw would
/// otherwise move the p95, which sits inside the costliest shape.
std::vector<Query> PaperPool(const Corpus& corpus, size_t per_shape) {
  const std::vector<std::vector<uint64_t>> shapes = {
      {10, 100000},   {100, 100000},  {1000, 100000},
      {10000, 100000}, {10, 1000},    {100, 10000},
      {10, 100000, 100000},           {10, 100000, 100000, 100000},
      {10, 100000, 100000, 100000, 100000},
      {1000, 100000, 100000},         {100, 100},
      {1000, 1000},   {10000, 10000}, {1000, 1000, 1000},
  };
  auto family = [&](uint64_t f) -> const std::vector<std::string>& {
    for (const Family& fam : corpus.families) {
      if (fam.frequency == f) return fam.names;
    }
    std::fprintf(stderr, "perfbench: no family %llu\n",
                 static_cast<unsigned long long>(f));
    std::exit(3);
  };
  std::vector<Query> pool;
  for (const std::vector<uint64_t>& shape : shapes) {
    for (size_t n = 0; n < per_shape; ++n) {
      Query q;
      std::map<uint64_t, size_t> used;
      for (uint64_t f : shape) {
        const std::vector<std::string>& names = family(f);
        q.push_back(names[(n + used[f]++) % names.size()]);
      }
      pool.push_back(std::move(q));
    }
  }
  return pool;
}

std::vector<uint32_t> ZipfSequence(size_t pool, double s, size_t n, Rng* rng) {
  const ZipfSampler zipf(pool, s);
  std::vector<uint32_t> seq(n);
  for (uint32_t& q : seq) q = zipf.Sample(rng);
  return seq;
}

/// Every pool entry equally often, in seeded order.
std::vector<uint32_t> BalancedSequence(size_t pool, size_t n, Rng* rng) {
  std::vector<uint32_t> seq(n);
  for (size_t i = 0; i < n; ++i) seq[i] = static_cast<uint32_t>(i % pool);
  rng->Shuffle(&seq);
  return seq;
}

// ---------------------------------------------------------------------------
// Update batches: move probe-keyword postings between existing title
// text nodes (every id fits the build-time level table). A round's
// second half moves them back in reverse order, so each round starts
// from the same index and repeats the same work.

struct Move {
  std::string keyword;
  DeweyId from;
  DeweyId to;
};

struct UpdateBatch {
  std::vector<Move> moves;
  Query probe;
  /// BruteForceSlca over the benchmark's model of the lists after the
  /// batch: what the reopened service must answer.
  std::vector<DeweyId> expected;
};

class UpdateModel {
 public:
  explicit UpdateModel(const XKSearch& engine) {
    for (size_t i = 0; i < kProbeFamilies; ++i) {
      lists_[ProbeKeyword(i)] = engine.index().Materialize(ProbeKeyword(i));
    }
    const xksearch::Document& doc = engine.document();
    for (xksearch::NodeId n = 1; n < doc.node_count(); ++n) {
      if (doc.IsText(n) && doc.tag(doc.parent(n)) == "title") {
        targets_.push_back(doc.DeweyOf(n));
      }
    }
  }

  std::vector<UpdateBatch> PlanRound(size_t batches, size_t moves, Rng* rng) {
    std::vector<UpdateBatch> round;
    const size_t half = std::max<size_t>(1, batches / 2);
    for (size_t b = 0; b < half; ++b) {
      UpdateBatch batch;
      for (size_t m = 0; m < moves; ++m) {
        const std::string kw = ProbeKeyword(rng->Uniform(kProbeFamilies));
        std::vector<DeweyId>& list = lists_[kw];
        Move move{kw, list[rng->Uniform(list.size())], {}};
        do {
          move.to = targets_[rng->Uniform(targets_.size())];
        } while (std::binary_search(list.begin(), list.end(), move.to));
        Apply(move);
        batch.moves.push_back(std::move(move));
      }
      Probe(&batch, rng);
      round.push_back(std::move(batch));
    }
    for (size_t b = half; b-- > 0;) {
      UpdateBatch batch;
      const std::vector<Move>& forward = round[b].moves;
      for (size_t m = forward.size(); m-- > 0;) {
        Move back{forward[m].keyword, forward[m].to, forward[m].from};
        Apply(back);
        batch.moves.push_back(std::move(back));
      }
      Probe(&batch, rng);
      round.push_back(std::move(batch));
    }
    return round;
  }

 private:
  void Apply(const Move& move) {
    std::vector<DeweyId>& list = lists_[move.keyword];
    list.erase(std::lower_bound(list.begin(), list.end(), move.from));
    list.insert(std::lower_bound(list.begin(), list.end(), move.to), move.to);
  }

  void Probe(UpdateBatch* batch, Rng* rng) {
    const std::string& first = batch->moves.front().keyword;
    std::string second = first;
    while (second == first) second = ProbeKeyword(rng->Uniform(kProbeFamilies));
    batch->probe = {first, second};
    batch->expected = xksearch::BruteForceSlca({lists_[first], lists_[second]});
  }

  std::map<std::string, std::vector<DeweyId>> lists_;
  std::vector<DeweyId> targets_;
};

// ---------------------------------------------------------------------------
// Serving.

/// Tallies of served requests over one or more rounds.
struct Tally {
  std::vector<double> latency_us;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;
  uint64_t cache_hits = 0;
  uint64_t coalesced = 0;
  /// Requests that ran engine work of their own (no cache, no coalesce).
  uint64_t executed = 0;
  uint64_t page_reads = 0;
  uint64_t page_hits = 0;
  uint64_t match_ops = 0;
  uint64_t postings_read = 0;
  uint64_t results = 0;
  double wall_s = 0;

  void Merge(const Tally& o) {
    latency_us.insert(latency_us.end(), o.latency_us.begin(),
                      o.latency_us.end());
    attempted += o.attempted;
    ok += o.ok;
    failed += o.failed;
    rejected += o.rejected;
    cache_hits += o.cache_hits;
    coalesced += o.coalesced;
    executed += o.executed;
    page_reads += o.page_reads;
    page_hits += o.page_hits;
    match_ops += o.match_ops;
    postings_read += o.postings_read;
    results += o.results;
    wall_s += o.wall_s;
  }
  double qps() const { return wall_s > 0 ? ok / wall_s : 0; }
};

/// Per-query reference counters summed over a request sequence.
Expected SumExpected(const std::vector<Expected>& refs, const uint32_t* seq,
                     size_t n) {
  Expected sum;
  for (size_t i = 0; i < n; ++i) {
    sum.match_ops += refs[seq[i]].match_ops;
    sum.postings_read += refs[seq[i]].postings_read;
    sum.results += refs[seq[i]].results;
  }
  return sum;
}

bool SameAnswer(const SearchResult& got, const Expected& want) {
  return got.nodes == want.nodes && got.stats.match_ops == want.match_ops &&
         got.stats.postings_read == want.postings_read &&
         got.stats.results == want.results;
}

/// Closed loop: `clients` threads share one cursor over seq[0..n) and
/// each sends its next request only when the previous one returned. The
/// round ends when the sequence is done; every answer is checked.
Tally ServeSequence(QueryService* service, const std::vector<Query>& pool,
                    const std::vector<Expected>& refs, const uint32_t* seq,
                    size_t n, size_t clients, Tracer* tracer, Gate* gate) {
  std::atomic<size_t> next{0};
  std::vector<Tally> per_client(clients);
  const bool single = clients == 1;
  const Clock::time_point start = Clock::now();
  auto client = [&](Tally* t) {
    t->latency_us.reserve(n / clients + 1);
    for (size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      const uint32_t q = seq[i];
      ++t->attempted;
      Clock::time_point t0, t1;
      std::optional<Result<QueryResponse>> served;
      {
        ScopedSpan span(tracer, "request", 0);
        if (single && tracer->enabled()) tracer->served_request = span.id();
        t0 = Clock::now();
        served.emplace(service->Search(pool[q]));
        t1 = Clock::now();
      }
      const Result<QueryResponse>& response = *served;
      if (!response.ok()) {
        if (response.status().IsUnavailable()) {
          ++t->rejected;
        } else {
          ++t->failed;
          gate->Fail("query '" + QueryText(pool[q]) +
                     "' failed: " + response.status().ToString());
        }
        continue;
      }
      ++t->ok;
      t->latency_us.push_back(Micros(t1 - t0));
      const SearchResult& r = response->result;
      if (!SameAnswer(r, refs[q])) {
        gate->Fail("query '" + QueryText(pool[q]) +
                   "' differs from its reference (nodes " +
                   std::to_string(r.nodes.size()) + " vs " +
                   std::to_string(refs[q].nodes.size()) + ", match_ops " +
                   std::to_string(r.stats.match_ops.load()) + " vs " +
                   std::to_string(refs[q].match_ops) + ", postings_read " +
                   std::to_string(r.stats.postings_read.load()) + " vs " +
                   std::to_string(refs[q].postings_read) + ")");
      }
      t->match_ops += r.stats.match_ops;
      t->postings_read += r.stats.postings_read;
      t->results += r.stats.results;
      if (response->cache_hit) {
        ++t->cache_hits;
      } else if (response->coalesced) {
        ++t->coalesced;
      } else {
        ++t->executed;
        t->page_reads += r.stats.page_reads;
        t->page_hits += r.stats.page_hits;
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 1; c < clients; ++c) {
    threads.emplace_back(client, &per_client[c]);
  }
  client(&per_client[0]);
  for (std::thread& t : threads) t.join();
  tracer->served_request = 0;
  Tally total;
  for (const Tally& t : per_client) total.Merge(t);
  total.wall_s = Seconds(Clock::now() - start);
  if (total.failed == 0 && total.rejected == 0) {
    const Expected want = SumExpected(refs, seq, n);
    if (total.match_ops != want.match_ops ||
        total.postings_read != want.postings_read ||
        total.results != want.results) {
      gate->Fail("round counters differ from the seed's expected totals");
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Update, commit, reopen and swap.

struct Cycle {
  double visible_ms = 0;
  double stage_ms = 0;
  double commit_ms = 0;
  double open_ms = 0;
  uint64_t postings = 0;
  uint64_t wal_pages = 0;
  uint64_t pages_written = 0;
  uint64_t syncs = 0;
  /// Steal over the cycle and the round it followed or belonged to.
  double steal = 0;
};

/// Stages `batch` against the index at `prefix` on a writer thread while
/// `reads` (if any) runs on this thread; then reads stop, Finish commits
/// the batch (WAL append, one fsync) and applies it, and a reopened
/// searcher and service are swapped in once they answer the batch's
/// probe. Visibility counts the writer's own time: staging, then commit
/// through the first correct probe answer.
Cycle SwapCycle(const Config& config, const std::string& prefix,
                const System& built, const UpdateBatch& batch, IoStats* io,
                std::unique_ptr<DiskSearcher>* searcher,
                std::unique_ptr<QueryService>* service,
                const std::function<void()>& reads, Gate* gate) {
  Cycle cycle;
  const uint64_t wal0 = io->wal.pages_written;
  const uint64_t written0 = io->Sum(&IoCounters::pages_written);
  const uint64_t syncs0 = io->Sum(&IoCounters::syncs);
  const xksearch::DiskIndexOptions options =
      ServeDiskOptions(config, built.il_pages, built.scan_pages, io);
  std::unique_ptr<DiskIndexUpdater> updater;
  auto stage = [&] {
    // The writer's page I/O nests under this span, not under whichever
    // read request is in flight.
    ScopedSpan span(io->tracer, "update_stage", 0);
    const Clock::time_point t0 = Clock::now();
    Result<std::unique_ptr<DiskIndexUpdater>> opened =
        DiskIndexUpdater::Open(prefix, options);
    CheckOk(opened.status(), "DiskIndexUpdater::Open");
    updater = std::move(*opened);
    for (const Move& m : batch.moves) {
      CheckOk(updater->RemovePosting(m.keyword, m.from), "RemovePosting");
      CheckOk(updater->AddPosting(m.keyword, m.to), "AddPosting");
    }
    cycle.stage_ms = Millis(Clock::now() - t0);
  };
  // A single core cannot run the writer beside the reader without
  // exceeding nproc runnable threads; it stages first there.
  std::thread writer;
  if (reads && config.nproc >= 2) {
    writer = std::thread(stage);
  } else {
    stage();
  }
  if (reads) reads();
  if (writer.joinable()) writer.join();

  const Clock::time_point t2 = Clock::now();
  {
    ScopedSpan span(io->tracer, "update_commit", 0);
    CheckOk(updater->Finish(), "DiskIndexUpdater::Finish");
    updater.reset();
  }
  const Clock::time_point t3 = Clock::now();
  std::optional<Result<std::unique_ptr<DiskSearcher>>> reopened;
  {
    ScopedSpan span(io->tracer, "update_open", 0);
    reopened.emplace(DiskSearcher::Open(prefix, options));
  }
  CheckOk(reopened->status(), "DiskSearcher::Open");
  const Clock::time_point t4 = Clock::now();
  auto fresh = std::make_unique<QueryService>((*reopened)->get(),
                                              ServiceOptions(config));
  Result<QueryResponse> probe = fresh->Search(batch.probe);
  const Clock::time_point t5 = Clock::now();
  if (!probe.ok() || probe->result.nodes != batch.expected) {
    gate->Fail("probe '" + QueryText(batch.probe) +
               "' after a swap differs from BruteForceSlca over the model");
  }
  service->reset();
  *searcher = std::move(**reopened);
  *service = std::move(fresh);
  cycle.commit_ms = Millis(t3 - t2);
  cycle.open_ms = Millis(t4 - t3);
  cycle.visible_ms = cycle.stage_ms + Millis(t5 - t2);
  cycle.postings = 2 * batch.moves.size();
  cycle.wal_pages = io->wal.pages_written - wal0;
  cycle.pages_written = io->Sum(&IoCounters::pages_written) - written0;
  cycle.syncs = io->Sum(&IoCounters::syncs) - syncs0;
  return cycle;
}

// ---------------------------------------------------------------------------
// Engine-only pass (traced run): the benchmark calls the engine and its
// modules directly on the same request sequence.

struct EngineLayer {
  double parallel_seq_us = 0;
  double parallel_par_us = 0;
  double decode_entries = 0;
  double decode_s = 0;
};

EngineLayer MeasureEngine(const Config& config, const System& sys,
                          const std::vector<Query>& pool,
                          const std::vector<Expected>& refs,
                          const std::vector<uint32_t>& seq, Tracer* tracer,
                          Gate* gate) {
  EngineLayer out;
  const bool memory = config.workload == Workload::kMemZipf;
  // The service is idle now, so the speedup comparison may use every
  // core; the engine search itself keeps the service's chunking.
  const size_t chunk_workers = std::max<size_t>(1, config.nproc - 1);
  ThreadPool chunk_pool(ThreadPool::Options{chunk_workers, 1024});
  SearchOptions options;
  xksearch::ParallelExecOptions exec;
  exec.pool = &chunk_pool;
  exec.max_chunks = chunk_workers + 1;
  if (config.chunk_workers > 0) options.slca_exec = exec;

  auto prepare = [&](const Query& q, QueryStats* stats) {
    Result<PreparedQuery> p =
        memory ? xksearch::PrepareQuery(sys.engine->index(), q,
                                        sys.engine->index_options().tokenizer,
                                        stats)
               : xksearch::PrepareQuery(*sys.searcher->index(), q,
                                        sys.searcher->tokenizer(), stats);
    CheckOk(p.status(), "PrepareQuery");
    return std::move(*p);
  };

  tracer->set_enabled(true);
  for (uint32_t q : seq) {
    const Query& query = pool[q];
    {
      ScopedSpan span(tracer, "engine_search", 0);
      Result<SearchResult> r = memory ? sys.engine->Search(query, options)
                                      : sys.searcher->Search(query, options);
      if (!r.ok() || r->nodes != refs[q].nodes) {
        gate->Fail("direct engine search of '" + QueryText(query) +
                   "' differs from its reference");
      }
    }
    QueryStats stats;
    SlcaAlgorithm algorithm = SlcaAlgorithm::kIndexedLookupEager;
    bool missing = true;
    {
      ScopedSpan root(tracer, "engine_direct", 0);
      std::optional<PreparedQuery> p;
      {
        ScopedSpan span(tracer, "prepare_query", 0);
        p.emplace(prepare(query, &stats));
      }
      algorithm = xksearch::ResolveAlgorithmChoice(options, p->min_frequency,
                                                   p->max_frequency);
      missing = p->missing;
      if (!missing) {
        ScopedSpan span(tracer, "compute_slca", 0);
        CheckOk(xksearch::ComputeSlca(algorithm, p->list_pointers(), {},
                                      &stats, [](const DeweyId&) {}),
                "ComputeSlca");
      }
    }
    if (stats.results != refs[q].results) {
      gate->Fail("ComputeSlca result count differs for '" + QueryText(query) +
                 "'");
    }
    if (algorithm == SlcaAlgorithm::kIndexedLookupEager && !missing) {
      // Sequential against chunked on the same warm lists.
      QueryStats s1, s2;
      PreparedQuery a = prepare(query, &s1);
      const Clock::time_point t0 = Clock::now();
      CheckOk(xksearch::ComputeSlca(algorithm, a.list_pointers(), {}, &s1,
                                    [](const DeweyId&) {}),
              "ComputeSlca");
      const Clock::time_point t1 = Clock::now();
      PreparedQuery b = prepare(query, &s2);
      const Clock::time_point t2 = Clock::now();
      CheckOk(xksearch::ComputeSlcaParallel(algorithm, b.list_pointers(), {},
                                            exec, &s2, [](const DeweyId&) {}),
              "ComputeSlcaParallel");
      const Clock::time_point t3 = Clock::now();
      if (s1.results != s2.results || s1.match_ops != s2.match_ops) {
        gate->Fail("chunked SLCA differs from sequential for '" +
                   QueryText(query) + "'");
      }
      out.parallel_seq_us += Micros(t1 - t0);
      out.parallel_par_us += Micros(t3 - t2);
    }
  }
  tracer->set_enabled(false);

  // Posting decode over every in-memory list the sequence touches.
  std::set<std::string> terms;
  for (uint32_t q : seq) {
    for (const std::string& k : pool[q]) {
      terms.insert(xksearch::NormalizeKeyword(
          k, sys.engine->index_options().tokenizer));
    }
  }
  std::vector<const xksearch::PackedDeweyList*> lists;
  for (const std::string& t : terms) {
    if (const auto* list = sys.engine->index().Find(t)) lists.push_back(list);
  }
  const Clock::time_point d0 = Clock::now();
  do {
    for (const auto* list : lists) {
      out.decode_entries += static_cast<double>(list->Materialize().size());
    }
  } while (Seconds(Clock::now() - d0) < 0.2);
  out.decode_s = Seconds(Clock::now() - d0);
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Cumulative (steal, total) jiffies of all CPUs from /proc/stat: time
/// the hypervisor ran other guests on this VM's vCPUs.
std::pair<double, double> StealJiffies() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  double total = 0;
  for (unsigned long long x : v) total += static_cast<double>(x);
  return {static_cast<double>(v[7]), total};
}

/// A round is quiet when the hypervisor stole at most this share of the
/// VM's CPU time while it ran. Neighbour load only ever adds time, comes
/// in bursts, and hits closed-loop hand-offs hard (a 20% steal phase
/// cuts mem_zipf's qps threefold), so the end-to-end figures come from
/// quiet rounds only: they read the program, not the neighbours.
constexpr double kQuietSteal = 0.02;

/// Picks the values taken while the VM was quiet (steal at most
/// kQuietSteal) when at least `min_quiet` were; otherwise the
/// least-stolen third of them, and no fewer than `min_quiet`.
template <typename T>
std::vector<T> QuietValues(std::vector<std::pair<double, T>> steal_value,
                           size_t min_quiet) {
  std::stable_sort(
      steal_value.begin(), steal_value.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t keep = 0;
  while (keep < steal_value.size() && steal_value[keep].first <= kQuietSteal) {
    ++keep;
  }
  if (keep < min_quiet) {
    keep = std::min(steal_value.size(),
                    std::max(min_quiet, steal_value.size() / 3));
  }
  std::vector<T> out;
  for (size_t i = 0; i < keep; ++i) out.push_back(steal_value[i].second);
  return out;
}

/// End-to-end figures of a set of rounds: qps is the median over the
/// chosen rounds and the latency percentiles come from their pooled
/// samples. The chosen rounds are the quiet ones, or the least-stolen
/// third when fewer than three were quiet (`all_quiet` is then false).
struct Quiet {
  double qps = 0;
  double p50_us = 0;
  double p95_us = 0;
  size_t rounds = 0;
  size_t samples = 0;
  bool all_quiet = true;
};

/// The timed rounds of one kind (untraced, or traced). Each keeps a
/// uniform sample of at most kSamplesPerRound latencies, so the
/// benchmark's own memory barely grows with the number of rounds and
/// peak_rss_mb reads the program. Rounds are equal work, so equal
/// samples weight them equally.
class Rounds {
 public:
  static constexpr size_t kSamplesPerRound = 256;

  explicit Rounds(uint64_t seed) : rng_(seed) {}

  void Add(const Tally& tally, double steal) {
    Round round{tally.qps(), steal, tally.latency_us};
    for (size_t i = 0; i < round.latency.size() && i < kSamplesPerRound;
         ++i) {
      std::swap(round.latency[i],
                round.latency[i + rng_.Uniform(round.latency.size() - i)]);
    }
    if (round.latency.size() > kSamplesPerRound) {
      round.latency.resize(kSamplesPerRound);
    }
    round.latency.shrink_to_fit();
    if (steal <= kQuietSteal) quiet_seconds_ += tally.wall_s;
    rounds_.push_back(std::move(round));
  }

  double quiet_seconds() const { return quiet_seconds_; }
  std::vector<double> qps() const {
    std::vector<double> out;
    for (const Round& r : rounds_) out.push_back(r.qps);
    return out;
  }
  std::vector<double> steal() const {
    std::vector<double> out;
    for (const Round& r : rounds_) out.push_back(r.steal);
    return out;
  }

  Quiet Summarize() const {
    std::vector<std::pair<double, const Round*>> by_steal;
    for (const Round& r : rounds_) by_steal.push_back({r.steal, &r});
    Quiet out;
    std::vector<double> qps, latency;
    for (const Round* r : QuietValues(by_steal, 3)) {
      if (r->steal > kQuietSteal) out.all_quiet = false;
      qps.push_back(r->qps);
      latency.insert(latency.end(), r->latency.begin(), r->latency.end());
    }
    out.qps = Median(qps);
    out.p50_us = Median(latency);
    out.p95_us = Percentile(latency, 0.95);
    out.rounds = qps.size();
    out.samples = latency.size();
    return out;
  }

 private:
  struct Round {
    double qps;
    double steal;
    std::vector<double> latency;
  };
  Rng rng_;
  std::vector<Round> rounds_;
  double quiet_seconds_ = 0;
};

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), "%s%.4g", out.size() > 1 ? ", " : "", v);
    out += buf;
  }
  return out + "]";
}

}  // namespace

Report RunBenchmark(const Config& config) {
  Report report;
  Gate gate;
  Tracer tracer;
  IoStats io;
  io.tracer = &tracer;

  const Corpus corpus = MakeCorpus(config);

  // Set up several times; setup_s is the median over the quiet set-ups
  // (all of them when fewer than two were quiet). The last one serves.
  System sys;
  std::vector<std::pair<double, double>> setup_s;  // (steal, seconds)
  std::vector<double> parse_s, index_s, build_s;
  for (size_t rep = 0; rep < config.setup_reps; ++rep) {
    const std::pair<double, double> steal0 = StealJiffies();
    const SetupTimes t = Setup(config, corpus, &io, &sys);
    const std::pair<double, double> steal1 = StealJiffies();
    setup_s.push_back({Ratio(steal1.first - steal0.first,
                             steal1.second - steal0.second),
                       t.total_s});
    parse_s.push_back(t.parse_s);
    index_s.push_back(t.index_s);
    build_s.push_back(t.disk_build_s);
  }
  SyncIndexFiles(config.Prefix());

  // Pools, sequences and references (untimed).
  Rng rng(config.seed * 0x9e3779b97f4a7c15ull + 17);
  std::vector<Query> pool;
  std::vector<uint32_t> round;
  switch (config.workload) {
    case Workload::kMemZipf:
    case Workload::kUpdateSwap:
      pool = ZipfPool(*sys.engine, config.pool_queries, &rng);
      round = ZipfSequence(pool.size(), config.zipf_s, config.round_requests,
                           &rng);
      break;
    case Workload::kDiskPaper:
      pool = PaperPool(corpus, config.smoke ? 1 : 8);
      round = BalancedSequence(pool.size(), config.round_requests, &rng);
      break;
  }
  if (pool.empty()) {
    std::fprintf(stderr, "perfbench: empty query pool\n");
    std::exit(3);
  }
  std::vector<Expected> refs(pool.size());
  {
    std::unique_ptr<ThreadPool> chunk_pool;
    SearchOptions disk_options;
    if (config.chunk_workers > 0) {
      chunk_pool = std::make_unique<ThreadPool>(
          ThreadPool::Options{config.chunk_workers, 1024});
      disk_options.slca_exec.pool = chunk_pool.get();
      disk_options.slca_exec.max_chunks = config.chunk_workers + 1;
    }
    for (size_t i = 0; i < pool.size(); ++i) {
      Result<SearchResult> mem = sys.engine->Search(pool[i]);
      CheckOk(mem.status(), "reference search");
      Expected& e = refs[i];
      e.nodes = mem->nodes;
      const SearchResult* counted = &*mem;
      std::optional<Result<SearchResult>> disk;
      if (config.workload != Workload::kMemZipf) {
        // Counters of the disk path, with the service's chunking.
        disk.emplace(sys.searcher->Search(pool[i], disk_options));
        CheckOk(disk->status(), "reference disk search");
        if ((*disk)->nodes != e.nodes) {
          gate.Fail("disk search of '" + QueryText(pool[i]) +
                    "' differs from the in-memory engine");
        }
        counted = &**disk;
      }
      e.match_ops = counted->stats.match_ops;
      e.postings_read = counted->stats.postings_read;
      e.results = counted->stats.results;
    }
  }
  std::vector<UpdateBatch> updates;
  {
    UpdateModel model(*sys.engine);
    const size_t batches = config.workload == Workload::kUpdateSwap
                               ? config.batches_per_round
                               : config.interleaved_batches;
    updates = model.PlanRound(batches, config.moves_per_batch, &rng);
  }

  // Warm-up prefix: pools, result cache and hot lists reach steady state.
  ServeSequence(sys.service.get(), pool, refs, round.data(),
                std::min(config.warmup_requests, round.size()), config.clients,
                &tracer, &gate);

  // mem_zipf and disk_paper interleave update cycles with their timed
  // rounds (between rounds, never during one), on a copy of their own
  // index, so every workload reports update visibility and its samples
  // spread over the run like update_swap's do. A cycle is quiet when
  // the steal from the start of the round before it to its end is.
  const bool interleave = config.workload != Workload::kUpdateSwap;
  std::unique_ptr<DiskSearcher> copy_searcher;
  std::unique_ptr<QueryService> copy_service;
  size_t next_update = 0;
  std::vector<Cycle> cycles;
  Clock::time_point last_cycle = Clock::now();
  auto update_cycle = [&](std::pair<double, double> steal0) {
    cycles.push_back(SwapCycle(config, config.CopyPrefix(), sys,
                               updates[next_update++ % updates.size()], &io,
                               &copy_searcher, &copy_service, nullptr, &gate));
    const std::pair<double, double> steal1 = StealJiffies();
    cycles.back().steal = Ratio(steal1.first - steal0.first,
                                steal1.second - steal0.second);
    last_cycle = Clock::now();
  };
  if (interleave) {
    CopyIndex(config.Prefix(), config.CopyPrefix());
    Result<std::unique_ptr<DiskSearcher>> opened = DiskSearcher::Open(
        config.CopyPrefix(),
        ServeDiskOptions(config, sys.il_pages, sys.scan_pages, &io));
    CheckOk(opened.status(), "DiskSearcher::Open");
    copy_searcher = std::move(*opened);
    copy_service = std::make_unique<QueryService>(copy_searcher.get(),
                                                  ServiceOptions(config));
  }

  // Timed phase: whole rounds until --seconds have elapsed. With --trace
  // every other round records spans, so the traced and untraced rounds
  // of one run give the tracing overhead.
  io.Reset();
  const bool hot_lists = config.workload == Workload::kMemZipf;
  const auto hot0 = sys.service->hot_list_stats();
  Tally plain, traced;
  Rounds plain_rounds(config.seed), traced_rounds(config.seed + 2);
  size_t rounds = 0;
  // Runs --seconds; if neighbour load left less than half of that quiet
  // (a quarter per half of a traced run), it keeps measuring, up to
  // 2 x --seconds in all (which keeps a whole benchmark session inside
  // its time budget even when every run meets a noisy neighbour).
  const Clock::time_point start = Clock::now();
  auto elapsed = [&] { return Seconds(Clock::now() - start); };
  auto more = [&] {
    if (config.trace && rounds < 2) return true;
    if (elapsed() < config.seconds) return true;
    if (elapsed() >= 2 * config.seconds) return false;
    return config.trace
               ? plain_rounds.quiet_seconds() < config.seconds / 4 ||
                     traced_rounds.quiet_seconds() < config.seconds / 4
               : plain_rounds.quiet_seconds() < config.seconds / 2;
  };
  do {
    const bool tracing = config.trace && rounds % 2 == 1;
    tracer.set_enabled(tracing);
    const std::pair<double, double> steal0 = StealJiffies();
    Tally tally;
    if (config.workload == Workload::kUpdateSwap) {
      const Clock::time_point round_start = Clock::now();
      for (size_t c = 0; c < updates.size(); ++c) {
        const uint32_t* slice = round.data() + c * config.reads_per_cycle;
        auto reads = [&] {
          tally.Merge(ServeSequence(sys.service.get(), pool, refs, slice,
                                    config.reads_per_cycle, config.clients,
                                    &tracer, &gate));
        };
        cycles.push_back(SwapCycle(config, config.Prefix(), sys, updates[c],
                                   &io, &sys.searcher, &sys.service, reads,
                                   &gate));
      }
      tally.wall_s = Seconds(Clock::now() - round_start);
      const std::pair<double, double> steal1 = StealJiffies();
      for (size_t c = cycles.size() - updates.size(); c < cycles.size(); ++c) {
        cycles[c].steal = Ratio(steal1.first - steal0.first,
                                steal1.second - steal0.second);
      }
    } else {
      tally = ServeSequence(sys.service.get(), pool, refs, round.data(),
                            round.size(), config.clients, &tracer, &gate);
    }
    const std::pair<double, double> steal1 = StealJiffies();
    (tracing ? traced_rounds : plain_rounds)
        .Add(tally, Ratio(steal1.first - steal0.first,
                          steal1.second - steal0.second));
    tally.latency_us = {};  // the round keeps its own sample
    (tracing ? traced : plain).Merge(tally);
    tracer.set_enabled(false);
    if (interleave && Seconds(Clock::now() - last_cycle) >= 0.25) {
      update_cycle(steal0);
    }
    ++rounds;
  } while (more());
  const double measured_s = elapsed();
  tracer.set_enabled(false);
  const auto hot1 = sys.service->hot_list_stats();
  const double queue_wait_us =
      sys.service->metrics().queue_latency.TakeSnapshot().PercentileNanos(
          0.5) /
      1e3;

  Tally all = plain;
  all.Merge(traced);
  const Quiet quiet_plain = plain_rounds.Summarize();
  const Quiet quiet_traced = traced_rounds.Summarize();
  const double served_p50 =
      config.trace ? quiet_traced.p50_us : quiet_plain.p50_us;

  EngineLayer engine;
  if (config.trace) {
    engine = MeasureEngine(config, sys, pool, refs, round, &tracer, &gate);
  }

  while (interleave && cycles.size() < config.interleaved_batches) {
    update_cycle(StealJiffies());
  }
  copy_service.reset();
  copy_searcher.reset();

  std::vector<std::pair<double, double>> visible_ms;  // (steal, ms)
  std::vector<double> commit_ms, swap_open_ms;
  double postings = 0, wal_pages = 0, pages_written = 0, syncs = 0;
  for (const Cycle& c : cycles) {
    visible_ms.push_back({c.steal, c.visible_ms});
    commit_ms.push_back(c.commit_ms);
    swap_open_ms.push_back(c.open_ms);
    postings += c.postings;
    wal_pages += c.wal_pages;
    pages_written += c.pages_written;
    syncs += c.syncs;
  }

  report.attempted = all.attempted;
  report.succeeded = all.ok;
  report.failed = all.failed;
  report.rejected = all.rejected;
  report.correct = gate.ok() && all.failed == 0 && all.rejected == 0 &&
                   all.ok > 0 && !cycles.empty();
  report.errors = gate.errors();

  const double xml_bytes = static_cast<double>(corpus.xml.size());
  const double requests_per_round = static_cast<double>(round.size());
  const Expected per_round = SumExpected(refs, round.data(), round.size());
  auto add = [&](const std::string& name, double value, const char* unit) {
    report.metrics.push_back({name, value, unit});
  };
  if (!config.trace) {
    add("qps", quiet_plain.qps, "1/s");
    add("query_p50_us", quiet_plain.p50_us, "us");
    add("query_p95_us", quiet_plain.p95_us, "us");
    add("update_visible_p50_ms", Median(QuietValues(visible_ms, 3)), "ms");
    add("setup_s", Median(QuietValues(setup_s, 2)), "s");
    add("peak_rss_mb", PeakRssMb(), "MB");
    add("index_bytes_per_xml_byte", sys.index_bytes / xml_bytes, "ratio");
  } else {
    // The hot-list cache serves in-memory lists only; the disk workloads
    // swap services mid-run, so their deltas would mix instances.
    const double hot_hits =
        hot_lists ? static_cast<double>(hot1.hits - hot0.hits) : 0;
    const double hot_misses =
        hot_lists ? static_cast<double>(hot1.misses - hot0.misses) : 0;
    const double engine_p50 = Median(tracer.DurationMicros("engine_search"));
    const double pages = static_cast<double>(io.Sum(&IoCounters::pages_read));
    add("serve.cache_hit_ratio", Ratio(all.cache_hits, all.ok), "ratio");
    add("serve.coalesced_frac", Ratio(all.coalesced, all.ok), "ratio");
    add("serve.hot_list_hit_ratio", Ratio(hot_hits, hot_hits + hot_misses),
        "ratio");
    add("serve.queue_wait_us_p50", queue_wait_us, "us");
    add("serve.overhead_us_p50", served_p50 - engine_p50, "us");
    add("engine.search_us_p50", engine_p50, "us");
    add("engine.search_us_p95",
        Percentile(tracer.DurationMicros("engine_search"), 0.95), "us");
    add("engine.prepare_us_p50", Median(tracer.DurationMicros("prepare_query")),
        "us");
    add("slca.match_us_p50", Median(tracer.SelfMicros("compute_slca")), "us");
    add("slca.parallel_speedup_il",
        Ratio(engine.parallel_seq_us, engine.parallel_par_us), "ratio");
    add("slca.match_ops_per_query", per_round.match_ops / requests_per_round,
        "count");
    add("slca.postings_read_per_query",
        per_round.postings_read / requests_per_round, "count");
    add("slca.results_per_query", per_round.results / requests_per_round,
        "count");
    add("dewey.decode_mentries_per_s",
        Ratio(engine.decode_entries / 1e6, engine.decode_s), "Mentries/s");
    add("storage.pool_hit_ratio",
        Ratio(all.page_hits, all.page_hits + all.page_reads), "ratio");
    add("storage.page_reads_per_query", Ratio(all.page_reads, all.executed),
        "count");
    add("storage.read_us_per_page",
        Ratio(io.Sum(&IoCounters::read_ns) / 1e3, pages), "us");
    add("storage.pages_per_read_call",
        Ratio(pages, io.Sum(&IoCounters::read_calls)), "count");
    add("storage.commit_ms_p50", Median(commit_ms), "ms");
    add("storage.open_ms_p50", Median(swap_open_ms), "ms");
    add("storage.wal_bytes_per_posting",
        Ratio(wal_pages * xksearch::kPageSize, postings), "B");
    add("storage.bytes_written_per_posting",
        Ratio(pages_written * xksearch::kPageSize, postings), "B");
    add("storage.fsyncs_per_batch", Ratio(syncs, cycles.size()), "count");
    add("storage.build_s", Median(build_s), "s");
    add("xml.parse_mb_per_s", Ratio(xml_bytes / 1e6, Median(parse_s)), "MB/s");
    add("index.build_s", Median(index_s), "s");
    add("trace.qps_overhead_frac",
        1 - Ratio(quiet_traced.qps, quiet_plain.qps), "ratio");
    add("trace.p50_overhead_frac",
        Ratio(quiet_traced.p50_us, quiet_plain.p50_us) - 1, "ratio");
    const std::string path = config.data_dir + "/trace_" +
                             WorkloadName(config.workload) + ".csv";
    if (tracer.WriteCsv(path)) {
      report.env.push_back({"trace_file", "\"" + path + "\""});
      report.env.push_back({"trace_spans", std::to_string(tracer.size())});
    }
  }

  const bool concurrent_writer =
      config.workload == Workload::kUpdateSwap && config.nproc >= 2;
  const size_t runnable =
      config.clients * (1 + config.chunk_workers) + (concurrent_writer ? 1 : 0);
  if (runnable > config.nproc) {
    report.correct = false;
    report.errors.push_back("runnable threads exceed nproc");
  }
  auto env = [&](const std::string& k, const std::string& v) {
    report.env.push_back({k, v});
  };
  env("rounds", std::to_string(rounds));
  env("round_qps", JsonList(plain_rounds.qps()));
  env("round_steal", JsonList(plain_rounds.steal()));
  env("measured_s", JsonList({measured_s}));
  env("quiet_rounds", std::to_string(quiet_plain.rounds));
  env("all_quiet", quiet_plain.all_quiet ? "true" : "false");
  env("quiet_latency_samples", std::to_string(quiet_plain.samples));
  env("round_requests", std::to_string(round.size()));
  env("pool_queries", std::to_string(pool.size()));
  env("runnable_threads", std::to_string(runnable));
  env("clients", std::to_string(config.clients));
  env("service_workers", std::to_string(config.workers));
  env("chunk_workers", std::to_string(config.chunk_workers));
  env("papers", std::to_string(config.papers));
  env("xml_bytes", std::to_string(corpus.xml.size()));
  env("index_bytes", std::to_string(sys.index_bytes));
  env("il_pages", std::to_string(sys.il_pages));
  env("scan_pages", std::to_string(sys.scan_pages));
  const xksearch::DiskIndexOptions served =
      ServeDiskOptions(config, sys.il_pages, sys.scan_pages, &io);
  env("il_pool_pages", std::to_string(served.il_pool_pages));
  env("scan_pool_pages", std::to_string(served.scan_pool_pages));
  env("update_batches", std::to_string(cycles.size()));
  env("setup_reps", std::to_string(config.setup_reps));
  sys.Reset();
  return report;
}

}  // namespace perfbench
