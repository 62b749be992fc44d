#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "common/rng.h"
#include "engine/disk_searcher.h"
#include "gen/school.h"
#include "gtest/gtest.h"
#include "index/inverted_index.h"
#include "slca/brute_force.h"
#include "storage/disk_index.h"
#include "storage/fault_injection.h"
#include "test_util.h"
#include "xml/parser.h"

namespace xksearch {
namespace {

using testing_util::Id;
using testing_util::Strings;

class DiskIndexUpdaterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prefix_ = testing_util::UniqueTempPrefix("updater_idx");
    // Base index: two keywords over a small tree.
    source_.AddPosting("apple", Id("0.0.1"));
    source_.AddPosting("apple", Id("0.2.0"));
    source_.AddPosting("banana", Id("0.1"));
    source_.AddPosting("banana", Id("0.2.1"));
    // Widen the level table so updates have room (CanEncode headroom).
    source_.AddPosting("zzfiller", Id("0.7.7.7"));
    Result<std::unique_ptr<DiskIndex>> built =
        DiskIndex::Build(source_, prefix_);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
  }

  void TearDown() override {
    for (const char* suffix : {".il", ".scan", ".dict", ".wal"}) {
      std::remove((prefix_ + suffix).c_str());
    }
  }

  // Reads back one keyword list via a freshly opened index.
  std::vector<DeweyId> Postings(const std::string& keyword) {
    Result<std::unique_ptr<DiskIndex>> index = DiskIndex::Open(prefix_);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    std::vector<DeweyId> out;
    const DiskIndex::TermInfo* info = (*index)->FindTerm(keyword);
    if (info == nullptr) return out;
    Result<DiskIndex::PostingCursor> cursor = (*index)->OpenPostings(info->id);
    EXPECT_TRUE(cursor.ok());
    DeweyId id;
    while (cursor->Next(&id)) out.push_back(id);
    XKS_EXPECT_OK(cursor->status());
    // The Indexed Lookup layout must agree with the scan layout.
    DeweyId got;
    DeweyId probe({0});
    Result<bool> rm = (*index)->RightMatch(info->id, probe, &got);
    EXPECT_TRUE(rm.ok());
    if (!out.empty()) {
      EXPECT_TRUE(*rm);
      EXPECT_EQ(got, out.front());
    }
    return out;
  }

  std::string prefix_;
  InvertedIndex source_;
};

TEST_F(DiskIndexUpdaterTest, AddPostingAppears) {
  {
    Result<std::unique_ptr<DiskIndexUpdater>> updater =
        DiskIndexUpdater::Open(prefix_);
    ASSERT_TRUE(updater.ok()) << updater.status().ToString();
    XKS_ASSERT_OK((*updater)->AddPosting("apple", Id("0.1.5")));
    EXPECT_EQ((*updater)->Frequency("apple"), 3u);
    XKS_ASSERT_OK((*updater)->Finish());
  }
  EXPECT_EQ(Strings(Postings("apple")),
            (std::vector<std::string>{"0.0.1", "0.1.5", "0.2.0"}));
}

TEST_F(DiskIndexUpdaterTest, AddIsIdempotent) {
  Result<std::unique_ptr<DiskIndexUpdater>> updater =
      DiskIndexUpdater::Open(prefix_);
  ASSERT_TRUE(updater.ok());
  XKS_ASSERT_OK((*updater)->AddPosting("apple", Id("0.0.1")));  // existing
  EXPECT_EQ((*updater)->Frequency("apple"), 2u);
  XKS_ASSERT_OK((*updater)->AddPosting("apple", Id("0.3")));
  XKS_ASSERT_OK((*updater)->AddPosting("apple", Id("0.3")));  // repeat
  EXPECT_EQ((*updater)->Frequency("apple"), 3u);
  XKS_ASSERT_OK((*updater)->Finish());
  EXPECT_EQ(Postings("apple").size(), 3u);
}

TEST_F(DiskIndexUpdaterTest, NewKeywordGetsFreshTerm) {
  {
    Result<std::unique_ptr<DiskIndexUpdater>> updater =
        DiskIndexUpdater::Open(prefix_);
    ASSERT_TRUE(updater.ok());
    XKS_ASSERT_OK((*updater)->AddPosting("cherry", Id("0.4")));
    XKS_ASSERT_OK((*updater)->AddPosting("cherry", Id("0.0.3")));
    XKS_ASSERT_OK((*updater)->Finish());
  }
  EXPECT_EQ(Strings(Postings("cherry")),
            (std::vector<std::string>{"0.0.3", "0.4"}));
  // Existing keywords are untouched.
  EXPECT_EQ(Postings("apple").size(), 2u);
}

TEST_F(DiskIndexUpdaterTest, RemovePostingDisappears) {
  {
    Result<std::unique_ptr<DiskIndexUpdater>> updater =
        DiskIndexUpdater::Open(prefix_);
    ASSERT_TRUE(updater.ok());
    XKS_ASSERT_OK((*updater)->RemovePosting("apple", Id("0.0.1")));
    EXPECT_TRUE(
        (*updater)->RemovePosting("apple", Id("0.9.9")).IsNotFound());
    EXPECT_TRUE((*updater)->RemovePosting("nope", Id("0.1")).IsNotFound());
    XKS_ASSERT_OK((*updater)->Finish());
  }
  EXPECT_EQ(Strings(Postings("apple")), (std::vector<std::string>{"0.2.0"}));
}

TEST_F(DiskIndexUpdaterTest, RemovingEveryPostingDropsTheTerm) {
  {
    Result<std::unique_ptr<DiskIndexUpdater>> updater =
        DiskIndexUpdater::Open(prefix_);
    ASSERT_TRUE(updater.ok());
    XKS_ASSERT_OK((*updater)->RemovePosting("banana", Id("0.1")));
    XKS_ASSERT_OK((*updater)->RemovePosting("banana", Id("0.2.1")));
    XKS_ASSERT_OK((*updater)->Finish());
  }
  EXPECT_TRUE(Postings("banana").empty());
  Result<std::unique_ptr<DiskIndex>> index = DiskIndex::Open(prefix_);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->FindTerm("banana"), nullptr);
}

TEST_F(DiskIndexUpdaterTest, OutOfRangeIdRejected) {
  Result<std::unique_ptr<DiskIndexUpdater>> updater =
      DiskIndexUpdater::Open(prefix_);
  ASSERT_TRUE(updater.ok());
  // Component 999999 cannot fit the level table built from the corpus.
  EXPECT_TRUE(
      (*updater)->AddPosting("apple", Id("0.999999")).IsInvalidArgument());
}

TEST_F(DiskIndexUpdaterTest, ManyUpdatesSplitBlocksAndStayConsistent) {
  // Push enough postings through one keyword to force several block
  // splits and re-keyings; mirror everything in an in-memory reference.
  std::vector<DeweyId> reference = source_.Materialize("apple");
  {
    Result<std::unique_ptr<DiskIndexUpdater>> updater =
        DiskIndexUpdater::Open(prefix_);
    ASSERT_TRUE(updater.ok());
    Rng rng(2024);
    for (int i = 0; i < 3000; ++i) {
      const DeweyId id({0, static_cast<uint32_t>(rng.Uniform(8)),
                        static_cast<uint32_t>(rng.Uniform(8)),
                        static_cast<uint32_t>(rng.Uniform(8))});
      if (rng.Bernoulli(0.25) && !reference.empty()) {
        const size_t pick = rng.Uniform(reference.size());
        XKS_ASSERT_OK((*updater)->RemovePosting("apple", reference[pick]));
        reference.erase(reference.begin() + static_cast<long>(pick));
      } else {
        const Status st = (*updater)->AddPosting("apple", id);
        XKS_ASSERT_OK(st);
        auto pos = std::lower_bound(reference.begin(), reference.end(), id);
        if (pos == reference.end() || *pos != id) reference.insert(pos, id);
      }
    }
    EXPECT_EQ((*updater)->Frequency("apple"), reference.size());
    XKS_ASSERT_OK((*updater)->Finish());
  }
  EXPECT_EQ(Strings(Postings("apple")), Strings(reference));
}

TEST_F(DiskIndexUpdaterTest, UpdatedIndexAnswersQueriesCorrectly) {
  // End to end: mutate the school index, reopen with DiskSearcher, and
  // check the SLCA result tracks the change.
  const std::string prefix = ::testing::TempDir() + "/updater_school";
  Document doc = BuildSchoolDocument();
  InvertedIndex index = InvertedIndex::Build(doc);
  {
    Result<std::unique_ptr<DiskIndex>> built = DiskIndex::Build(index, prefix);
    ASSERT_TRUE(built.ok());
  }
  {
    // Pretend a new document edit put "ben" on the Robotics project lead
    // (node 0.2.0.1.0 is the text "John" under the lead element; use its
    // sibling position 0.2.0.2 as a fresh text node's id).
    Result<std::unique_ptr<DiskIndexUpdater>> updater =
        DiskIndexUpdater::Open(prefix);
    ASSERT_TRUE(updater.ok()) << updater.status().ToString();
    XKS_ASSERT_OK((*updater)->AddPosting("ben", Id("0.2.0.2")));
    XKS_ASSERT_OK((*updater)->Finish());
  }
  Result<std::unique_ptr<DiskSearcher>> searcher = DiskSearcher::Open(prefix);
  ASSERT_TRUE(searcher.ok());
  Result<SearchResult> result = (*searcher)->Search({"john", "ben"});
  ASSERT_TRUE(result.ok());
  // The Robotics project (0.2.0) now contains both names: a 4th answer.
  EXPECT_EQ(Strings(result->nodes),
            (std::vector<std::string>{"0.0.0", "0.0.1", "0.1.0.1", "0.2.0"}));
  for (const char* suffix : {".il", ".scan", ".dict", ".wal"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST_F(DiskIndexUpdaterTest, ReadersKeepPreBatchSnapshotDuringUpdate) {
  // A DiskSearcher opened before the batch must answer from the
  // pre-batch index for as long as the batch is in flight: the updater
  // stages every write (including buffer-pool eviction write-back) in
  // its StagedPageStore overlays, so the inner files only change at the
  // commit point. Readers hammer queries from two threads while the
  // main thread pushes a long batch through the updater; any divergence
  // from the pre-batch answer is a broken snapshot. Readers that should
  // outlive the commit must reopen — same contract as any index swap —
  // so they are stopped before Finish().
  std::vector<std::vector<DeweyId>> pre_lists = {
      source_.Materialize("apple"), source_.Materialize("banana")};
  const std::vector<std::string> expected_pre =
      Strings(BruteForceSlca(pre_lists));
  Result<std::unique_ptr<DiskSearcher>> searcher = DiskSearcher::Open(prefix_);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();

  // Quiesced baseline: no updater exists yet, so this run's algorithm
  // work (the paper's lm/rm match operations) is the reference every
  // mid-batch read must reproduce — the batch may only change WHERE a
  // match is answered from, never how many matches a snapshot query asks.
  Result<SearchResult> quiesced = (*searcher)->Search({"apple", "banana"});
  XKS_ASSERT_OK(quiesced.status());
  ASSERT_EQ(Strings(quiesced->nodes), expected_pre);
  const uint64_t quiesced_match_ops = quiesced->stats.match_ops.load();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::atomic<bool> diverged{false};
  auto read_loop = [&] {
    while (!stop.load(std::memory_order_acquire)) {
      Result<SearchResult> result = (*searcher)->Search({"apple", "banana"});
      if (!result.ok() || Strings(result->nodes) != expected_pre ||
          result->stats.match_ops.load() != quiesced_match_ops) {
        diverged.store(true, std::memory_order_release);
      }
      queries.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread reader_a(read_loop);
  std::thread reader_b(read_loop);

  Result<std::unique_ptr<DiskIndexUpdater>> updater =
      DiskIndexUpdater::Open(prefix_);
  ASSERT_TRUE(updater.ok()) << updater.status().ToString();
  XKS_ASSERT_OK((*updater)->RemovePosting("apple", Id("0.0.1")));
  XKS_ASSERT_OK((*updater)->AddPosting("apple", Id("0.1.0")));
  XKS_ASSERT_OK((*updater)->AddPosting("banana", Id("0.3.1")));
  Rng rng(77);
  for (int i = 0; i < 400; ++i) {
    const DeweyId id({0, static_cast<uint32_t>(rng.Uniform(8)),
                      static_cast<uint32_t>(rng.Uniform(8)),
                      static_cast<uint32_t>(rng.Uniform(8))});
    XKS_ASSERT_OK((*updater)->AddPosting("padding", id));
  }
  stop.store(true, std::memory_order_release);
  reader_a.join();
  reader_b.join();
  EXPECT_GT(queries.load(), 0u);
  EXPECT_FALSE(diverged.load()) << "a concurrent reader saw mid-batch state";

  XKS_ASSERT_OK((*updater)->Finish());
  EXPECT_EQ(Strings(Postings("apple")),
            (std::vector<std::string>{"0.1.0", "0.2.0"}));
  EXPECT_EQ(Postings("banana").size(), 3u);
  EXPECT_EQ(Postings("padding").size(), (*updater)->Frequency("padding"));
}

TEST_F(DiskIndexUpdaterTest, BatchIsStagedBehindWalFile) {
  {
    // The updater stages the batch behind <prefix>.wal; the log file
    // survives Finish (reset to empty, ready for the next batch).
    Result<std::unique_ptr<DiskIndexUpdater>> updater =
        DiskIndexUpdater::Open(prefix_);
    ASSERT_TRUE(updater.ok());
    XKS_ASSERT_OK((*updater)->AddPosting("apple", Id("0.1.5")));
    XKS_ASSERT_OK((*updater)->Finish());
  }
  EXPECT_TRUE(std::ifstream(prefix_ + ".wal").good());
  EXPECT_EQ(Strings(Postings("apple")),
            (std::vector<std::string>{"0.0.1", "0.1.5", "0.2.0"}));
}

TEST_F(DiskIndexUpdaterTest, CommittedBatchSurvivesApplyFailure) {
  // Kill the il store on its first write AFTER the commit fsync: the
  // batch is durable in the WAL but the apply pass dies. Finish reports
  // the error; the next updater Open replays the committed batch and
  // reports it through recovered_batches().
  {
    DiskIndexOptions options;
    options.store_decorator = [](std::unique_ptr<PageStore> store,
                                 std::string_view name) -> std::unique_ptr<PageStore> {
      if (name != "il") return store;
      auto wrapped =
          std::make_unique<FaultInjectingPageStore>(std::move(store), 1);
      // The inner il store is only written during the apply pass (all
      // earlier writes land in the overlay), so "first write" = first
      // post-commit apply operation.
      wrapped->FailNthWrite(1);
      wrapped->Arm();
      return wrapped;
    };
    Result<std::unique_ptr<DiskIndexUpdater>> updater =
        DiskIndexUpdater::Open(prefix_, options);
    ASSERT_TRUE(updater.ok()) << updater.status().ToString();
    XKS_ASSERT_OK((*updater)->AddPosting("apple", Id("0.4.2")));
    XKS_ASSERT_OK((*updater)->RemovePosting("banana", Id("0.1")));
    EXPECT_TRUE((*updater)->Finish().IsIoError());
  }
  {
    Result<std::unique_ptr<DiskIndexUpdater>> updater =
        DiskIndexUpdater::Open(prefix_);
    ASSERT_TRUE(updater.ok()) << updater.status().ToString();
    EXPECT_EQ((*updater)->recovered_batches(), 1u);
  }
  EXPECT_EQ(Strings(Postings("apple")),
            (std::vector<std::string>{"0.0.1", "0.2.0", "0.4.2"}));
  EXPECT_EQ(Strings(Postings("banana")), (std::vector<std::string>{"0.2.1"}));
}

TEST_F(DiskIndexUpdaterTest, InMemoryRejected) {
  DiskIndexOptions mem;
  mem.in_memory = true;
  EXPECT_TRUE(DiskIndexUpdater::Open(prefix_, mem).status().IsInvalidArgument());
}

}  // namespace
}  // namespace xksearch
