#include "storage/disk_index.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/rng.h"
#include "gen/dblp_generator.h"
#include "gtest/gtest.h"
#include "storage/fault_injection.h"
#include "storage/node_format.h"
#include "test_util.h"

namespace xksearch {
namespace {

using testing_util::Id;
using testing_util::Ids;

// Builds a small deterministic inverted index by hand.
InvertedIndex MakeSmallIndex() {
  InvertedIndex index;
  for (const DeweyId& id : Ids({"0.0.1", "0.1.2", "0.3.0.1"})) {
    index.AddPosting("apple", id);
  }
  for (const DeweyId& id : Ids({"0.1.0", "0.2"})) {
    index.AddPosting("banana", id);
  }
  index.AddPosting("cherry", Id("0.5.5.5"));
  return index;
}

DiskIndexOptions MemOptions() {
  DiskIndexOptions opts;
  opts.in_memory = true;
  return opts;
}

TEST(DiskIndexTest, DictionaryMatchesSource) {
  InvertedIndex src = MakeSmallIndex();
  Result<std::unique_ptr<DiskIndex>> index =
      DiskIndex::Build(src, "", MemOptions());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ((*index)->term_count(), 3u);
  EXPECT_EQ((*index)->total_postings(), 6u);
  const DiskIndex::TermInfo* apple = (*index)->FindTerm("apple");
  ASSERT_NE(apple, nullptr);
  EXPECT_EQ(apple->frequency, 3u);
  EXPECT_EQ((*index)->FindTerm("durian"), nullptr);
}

TEST(DiskIndexTest, PostingCursorStreamsFullList) {
  InvertedIndex src = MakeSmallIndex();
  Result<std::unique_ptr<DiskIndex>> index =
      DiskIndex::Build(src, "", MemOptions());
  ASSERT_TRUE(index.ok());
  const DiskIndex::TermInfo* apple = (*index)->FindTerm("apple");
  ASSERT_NE(apple, nullptr);
  Result<DiskIndex::PostingCursor> cursor = (*index)->OpenPostings(apple->id);
  ASSERT_TRUE(cursor.ok());
  std::vector<DeweyId> got;
  DeweyId id;
  while (cursor->Next(&id)) got.push_back(id);
  XKS_ASSERT_OK(cursor->status());
  EXPECT_EQ(got, src.Materialize("apple"));
}

TEST(DiskIndexTest, RightAndLeftMatchAgreeWithBinarySearch) {
  InvertedIndex src = MakeSmallIndex();
  Result<std::unique_ptr<DiskIndex>> index =
      DiskIndex::Build(src, "", MemOptions());
  ASSERT_TRUE(index.ok());
  const DiskIndex::TermInfo* apple = (*index)->FindTerm("apple");
  const std::vector<DeweyId> list = src.Materialize("apple");

  const auto probes =
      Ids({"0", "0.0", "0.0.1", "0.0.1.0", "0.1", "0.1.2", "0.2", "0.3.0.1",
           "0.3.0.2", "0.9", "0.0.0"});
  for (const DeweyId& probe : probes) {
    DeweyId got;
    Result<bool> rm = (*index)->RightMatch(apple->id, probe, &got);
    ASSERT_TRUE(rm.ok());
    auto lb = std::lower_bound(list.begin(), list.end(), probe);
    EXPECT_EQ(*rm, lb != list.end()) << probe.ToString();
    if (*rm) {
      EXPECT_EQ(got, *lb) << probe.ToString();
    }

    Result<bool> lm = (*index)->LeftMatch(apple->id, probe, &got);
    ASSERT_TRUE(lm.ok());
    // Last element <= probe.
    auto ub = std::upper_bound(list.begin(), list.end(), probe);
    EXPECT_EQ(*lm, ub != list.begin()) << probe.ToString();
    if (*lm) {
      EXPECT_EQ(got, *(ub - 1)) << probe.ToString();
    }
  }
}

TEST(DiskIndexTest, MatchDoesNotLeakAcrossTerms) {
  InvertedIndex src = MakeSmallIndex();
  Result<std::unique_ptr<DiskIndex>> index =
      DiskIndex::Build(src, "", MemOptions());
  ASSERT_TRUE(index.ok());
  // banana ends at 0.2; a right-match beyond it must not return cherry's
  // postings even though they follow in the composite key space.
  const DiskIndex::TermInfo* banana = (*index)->FindTerm("banana");
  DeweyId got;
  Result<bool> rm = (*index)->RightMatch(banana->id, Id("0.4"), &got);
  ASSERT_TRUE(rm.ok());
  EXPECT_FALSE(*rm);
  // cherry starts at 0.5.5.5; a left-match before it must not return
  // banana's postings.
  const DiskIndex::TermInfo* cherry = (*index)->FindTerm("cherry");
  Result<bool> lm = (*index)->LeftMatch(cherry->id, Id("0.1"), &got);
  ASSERT_TRUE(lm.ok());
  EXPECT_FALSE(*lm);
}

TEST(DiskIndexTest, LargeListSpansManyBlocks) {
  InvertedIndex src;
  std::vector<DeweyId> expected;
  for (uint32_t i = 0; i < 20000; ++i) {
    DeweyId id({0, i / 100, i % 100, 3});
    src.AddPosting("big", id);
    expected.push_back(id);
  }
  Result<std::unique_ptr<DiskIndex>> index =
      DiskIndex::Build(src, "", MemOptions());
  ASSERT_TRUE(index.ok());
  EXPECT_GT((*index)->scan_page_count(), 3u);

  const DiskIndex::TermInfo* big = (*index)->FindTerm("big");
  Result<DiskIndex::PostingCursor> cursor = (*index)->OpenPostings(big->id);
  ASSERT_TRUE(cursor.ok());
  std::vector<DeweyId> got;
  DeweyId id;
  while (cursor->Next(&id)) got.push_back(id);
  XKS_ASSERT_OK(cursor->status());
  EXPECT_EQ(got, expected);

  // Random probes across block boundaries.
  Rng rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    const DeweyId probe(
        {0, static_cast<uint32_t>(rng.Uniform(210)),
         static_cast<uint32_t>(rng.Uniform(110))});
    DeweyId got_rm;
    Result<bool> rm = (*index)->RightMatch(big->id, probe, &got_rm);
    ASSERT_TRUE(rm.ok());
    auto lb = std::lower_bound(expected.begin(), expected.end(), probe);
    ASSERT_EQ(*rm, lb != expected.end());
    if (*rm) {
      EXPECT_EQ(got_rm, *lb);
    }
  }
}

TEST(DiskIndexTest, ColdAndHotCacheAccounting) {
  InvertedIndex src;
  for (uint32_t i = 0; i < 5000; ++i) {
    src.AddPosting("kw", DeweyId({0, i / 64, i % 64}));
  }
  Result<std::unique_ptr<DiskIndex>> index =
      DiskIndex::Build(src, "", MemOptions());
  ASSERT_TRUE(index.ok());
  DiskIndex& di = **index;

  QueryStats cold;
  XKS_ASSERT_OK(di.DropCaches());
  const DiskIndex::TermInfo* kw = di.FindTerm("kw");
  Result<DiskIndex::PostingCursor> cursor = di.OpenPostings(kw->id, &cold);
  ASSERT_TRUE(cursor.ok());
  DeweyId id;
  size_t n = 0;
  while (cursor->Next(&id)) ++n;
  EXPECT_EQ(n, 5000u);
  EXPECT_GT(cold.page_reads, 0u);

  // Hot: same scan over a warm pool costs no reads.
  QueryStats hot;
  Result<DiskIndex::PostingCursor> cursor2 = di.OpenPostings(kw->id, &hot);
  ASSERT_TRUE(cursor2.ok());
  n = 0;
  while (cursor2->Next(&id)) ++n;
  EXPECT_EQ(n, 5000u);
  EXPECT_EQ(hot.page_reads, 0u);
  EXPECT_GT(hot.page_hits, 0u);
}

TEST(DiskIndexTest, FileBackedBuildAndReopen) {
  const std::string prefix = ::testing::TempDir() + "/disk_index_files";
  InvertedIndex src = MakeSmallIndex();
  {
    DiskIndexOptions opts;  // file-backed
    Result<std::unique_ptr<DiskIndex>> built =
        DiskIndex::Build(src, prefix, opts);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    EXPECT_EQ((*built)->term_count(), 3u);
  }
  {
    Result<std::unique_ptr<DiskIndex>> opened = DiskIndex::Open(prefix);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ((*opened)->term_count(), 3u);
    const DiskIndex::TermInfo* apple = (*opened)->FindTerm("apple");
    ASSERT_NE(apple, nullptr);
    DeweyId got;
    Result<bool> rm = (*opened)->RightMatch(apple->id, Id("0"), &got);
    ASSERT_TRUE(rm.ok());
    EXPECT_TRUE(*rm);
    EXPECT_EQ(got, Id("0.0.1"));
  }
  for (const char* suffix : {".il", ".scan", ".dict"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(DiskIndexTest, UncompressedVariantsBehaveIdentically) {
  InvertedIndex src = MakeSmallIndex();
  DiskIndexOptions plain = MemOptions();
  plain.compress_dewey = false;
  plain.delta_compress = false;
  Result<std::unique_ptr<DiskIndex>> index = DiskIndex::Build(src, "", plain);
  ASSERT_TRUE(index.ok());
  const DiskIndex::TermInfo* apple = (*index)->FindTerm("apple");
  Result<DiskIndex::PostingCursor> cursor = (*index)->OpenPostings(apple->id);
  ASSERT_TRUE(cursor.ok());
  std::vector<DeweyId> got;
  DeweyId id;
  while (cursor->Next(&id)) got.push_back(id);
  EXPECT_EQ(got, src.Materialize("apple"));
}

TEST(DiskIndexTest, CompressionShrinksIndex) {
  DblpOptions gen;
  gen.papers = 3000;
  gen.plants.push_back({"planted", 500});
  Result<Document> doc = GenerateDblp(gen);
  ASSERT_TRUE(doc.ok());
  InvertedIndex src = InvertedIndex::Build(*doc);

  Result<std::unique_ptr<DiskIndex>> compressed =
      DiskIndex::Build(src, "", MemOptions());
  DiskIndexOptions plain_opts = MemOptions();
  plain_opts.compress_dewey = false;
  plain_opts.delta_compress = false;
  Result<std::unique_ptr<DiskIndex>> plain =
      DiskIndex::Build(src, "", plain_opts);
  ASSERT_TRUE(compressed.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_LT((*compressed)->il_page_count(), (*plain)->il_page_count());
  EXPECT_LE((*compressed)->scan_page_count(), (*plain)->scan_page_count());
}

TEST(DiskIndexTest, OpenInMemoryRejected) {
  EXPECT_TRUE(DiskIndex::Open("", MemOptions()).status().IsInvalidArgument());
}

TEST(DiskIndexTest, EmptyIndexBuilds) {
  InvertedIndex empty;
  Result<std::unique_ptr<DiskIndex>> index =
      DiskIndex::Build(empty, "", MemOptions());
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->term_count(), 0u);
}

// ---------------------------------------------------------------------
// Leaf finger: lm/rm answered from a copy of the last IL leaf.

// One Indexed Lookup entry, located by a walk over the leaves.
struct IlEntry {
  uint32_t term;
  DeweyId id;
  PageId leaf;
  size_t slot;
};

std::vector<IlEntry> WalkIlLeaves(const DiskIndex& index) {
  std::vector<IlEntry> out;
  Result<BPlusTree> tree = BPlusTree::Open(index.il_pool());
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  if (!tree.ok()) return out;
  BPlusTree::Cursor cursor = tree->NewCursor();
  EXPECT_TRUE(cursor.SeekToFirst().ok());
  while (cursor.Valid()) {
    const auto* key = reinterpret_cast<const uint8_t*>(cursor.key().data());
    const uint32_t term = uint32_t{key[0]} << 24 | uint32_t{key[1]} << 16 |
                          uint32_t{key[2]} << 8 | uint32_t{key[3]};
    Result<DeweyId> id =
        index.codec().Decode(key + 4, cursor.key().size() - 4);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    const bool same_leaf = !out.empty() && out.back().leaf == cursor.leaf_id();
    out.push_back({term, id.ok() ? *id : DeweyId(), cursor.leaf_id(),
                   same_leaf ? out.back().slot + 1 : 0});
    if (!cursor.Next().ok()) {
      ADD_FAILURE() << "leaf walk failed";
      break;
    }
  }
  return out;
}

// Expected lm/rm over a sorted list.
bool OracleMatch(const std::vector<DeweyId>& list, const DeweyId& v,
                 bool left, DeweyId* out) {
  if (left) {
    auto it = std::upper_bound(list.begin(), list.end(), v);
    if (it == list.begin()) return false;
    *out = *(it - 1);
    return true;
  }
  auto it = std::lower_bound(list.begin(), list.end(), v);
  if (it == list.end()) return false;
  *out = *it;
  return true;
}

// Three terms with adjacent ids, each spanning several IL leaves, so the
// index has leaves inside one term and leaves straddling two.
class IlFingerTest : public ::testing::Test {
 protected:
  static constexpr const char* kTerms[] = {"alpha", "beta", "gamma"};

  void Build(DiskIndexOptions options) {
    for (uint32_t t = 0; t < 3; ++t) {
      for (uint32_t i = 0; i < 900 + 150 * t; ++i) {
        src_.AddPosting(kTerms[t], DeweyId({0, i / 25, (i % 25) * 2 + t, 1}));
      }
    }
    options.in_memory = true;
    Result<std::unique_ptr<DiskIndex>> built =
        DiskIndex::Build(src_, "", options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    index_ = std::move(built).ValueOrDie();
    for (const char* kw : kTerms) {
      const DiskIndex::TermInfo* info = index_->FindTerm(kw);
      ASSERT_NE(info, nullptr);
      lists_[info->id] = src_.Materialize(kw);
    }
  }

  // Probes `term` through `finger` and checks the answer against the
  // one-shot probe and the oracle, postings_read included. Returns
  // whether the probe touched the buffer pool.
  bool CheckProbe(uint32_t term, const DeweyId& v, bool left,
                  DiskIndex::IlFinger* finger) {
    QueryStats with_finger;
    QueryStats one_shot;
    DeweyId got, want, expected;
    Result<bool> a =
        left ? index_->LeftMatch(term, v, &got, &with_finger, finger)
             : index_->RightMatch(term, v, &got, &with_finger, finger);
    Result<bool> b = left ? index_->LeftMatch(term, v, &want, &one_shot)
                          : index_->RightMatch(term, v, &want, &one_shot);
    const std::string what = std::string(left ? "lm" : "rm") + "(" +
                             std::to_string(term) + ", " + v.ToString() + ")";
    EXPECT_TRUE(a.ok()) << what << ": " << a.status().ToString();
    EXPECT_TRUE(b.ok()) << what << ": " << b.status().ToString();
    if (!a.ok() || !b.ok()) return true;
    auto list = lists_.find(term);
    const bool found = list != lists_.end() &&
                       OracleMatch(list->second, v, left, &expected);
    EXPECT_EQ(*a, found) << what;
    EXPECT_EQ(*b, found) << what;
    if (found && *a && *b) {
      EXPECT_EQ(got, expected) << what;
      EXPECT_EQ(want, expected) << what;
    }
    EXPECT_EQ(with_finger.postings_read.load(), one_shot.postings_read.load())
        << what;
    return with_finger.page_hits.load() + with_finger.page_reads.load() > 0;
  }

  InvertedIndex src_;
  std::unique_ptr<DiskIndex> index_;
  std::unordered_map<uint32_t, std::vector<DeweyId>> lists_;
};

TEST_F(IlFingerTest, MatchesDescentOnEveryLeafBoundaryInEveryOrder) {
  ASSERT_NO_FATAL_FAILURE(Build(MemOptions()));
  const std::vector<IlEntry> entries = WalkIlLeaves(*index_);
  ASSERT_EQ(entries.size(), 900u + 1050u + 1200u);
  size_t leaves = 0;
  bool straddles = false;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].slot == 0) ++leaves;
    if (i > 0 && entries[i].slot > 0 && entries[i].term != entries[i - 1].term) {
      straddles = true;
    }
  }
  ASSERT_GE(leaves, 6u) << "every term should span several leaves";
  ASSERT_TRUE(straddles) << "some leaf should hold two terms";

  // Around every entry — so the first and last slot of every leaf and
  // the gap between two leaves: just before it, on it, just after it,
  // under its own term; on it under each neighbouring term; and before
  // the first and after the last key of every term.
  struct Probe {
    uint32_t term;
    DeweyId v;
  };
  std::vector<Probe> probes;
  for (const IlEntry& e : entries) {
    for (const DeweyId& v : {e.id.Parent(), e.id, e.id.Child(0)}) {
      probes.push_back({e.term, v});
    }
    if (e.term > 0) probes.push_back({e.term - 1, e.id});
    probes.push_back({e.term + 1, e.id});
  }
  for (const auto& [term, list] : lists_) {
    probes.push_back({term, DeweyId::Root()});
    probes.push_back({term, DeweyId({0, 1000000})});
  }
  auto by_key = [](const Probe& a, const Probe& b) {
    return a.term != b.term ? a.term < b.term : a.v < b.v;
  };

  for (const char* order : {"ascending", "descending", "random"}) {
    SCOPED_TRACE(order);
    if (std::string(order) == "ascending") {
      std::sort(probes.begin(), probes.end(), by_key);
    } else if (std::string(order) == "descending") {
      std::sort(probes.rbegin(), probes.rend(), by_key);
    } else {
      Rng rng(14);
      rng.Shuffle(&probes);
    }
    // One finger per term, as each keyword list holds, and one finger
    // shared by every term, which lands across term boundaries.
    std::unordered_map<uint32_t, DiskIndex::IlFinger> per_term;
    DiskIndex::IlFinger shared;
    size_t from_copy = 0;
    size_t descents = 0;
    for (const Probe& p : probes) {
      for (bool left : {false, true}) {
        const bool touched = CheckProbe(p.term, p.v, left, &per_term[p.term]);
        (touched ? descents : from_copy) += 1;
        CheckProbe(p.term, p.v, left, &shared);
      }
    }
    EXPECT_GT(descents, 0u);
    if (std::string(order) != "random") {
      EXPECT_GT(from_copy, 10 * descents)
          << "ordered probes should mostly stay on the finger's leaf";
    }
  }
  EXPECT_EQ(index_->il_pool()->DebugTotalPins(), 0u);
}

TEST_F(IlFingerTest, HoldsNoPinsBetweenProbesWithTwoFramePool) {
  DiskIndexOptions options = MemOptions();
  options.il_pool_pages = 2;
  options.scan_pool_pages = 2;
  options.pool_shards = 1;
  ASSERT_NO_FATAL_FAILURE(Build(options));
  // A fourth list: the three terms plus "alpha" again, as a query that
  // repeats a keyword holds two lists over one term.
  std::vector<uint32_t> terms;
  for (const char* kw : {"alpha", "beta", "gamma", "alpha"}) {
    terms.push_back(index_->FindTerm(kw)->id);
  }
  std::vector<DiskIndex::IlFinger> fingers(terms.size());
  Rng rng(3);
  for (uint32_t i = 0; i < 1400; ++i) {
    for (size_t l = 0; l < terms.size(); ++l) {
      // Ascending sweeps with a jump now and then, so probes mix
      // answers from the copy with descents that evict and re-read.
      const uint32_t step = rng.Bernoulli(0.05)
                                ? static_cast<uint32_t>(rng.Uniform(1400))
                                : i;
      const DeweyId v({0, step / 25, (step % 25) * 2 + 1});
      CheckProbe(terms[l], v, (i + l) % 2 == 0, &fingers[l]);
      ASSERT_EQ(index_->il_pool()->DebugTotalPins(), 0u)
          << "probe " << i << " of list " << l;
    }
  }
}

TEST_F(IlFingerTest, ConcurrentFingersOverOneIndexAgree) {
  // Chunked execution probes one index from several threads, one finger
  // each, through a pool small enough to evict under them.
  DiskIndexOptions options = MemOptions();
  options.il_pool_pages = 8;
  ASSERT_NO_FATAL_FAILURE(Build(options));
  std::vector<uint32_t> terms;
  for (const auto& [term, list] : lists_) terms.push_back(term);
  std::vector<std::thread> threads;
  std::atomic<size_t> mismatches{0};
  for (size_t w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      const uint32_t term = terms[w % terms.size()];
      const std::vector<DeweyId>& list = lists_.at(term);
      DiskIndex::IlFinger finger;
      QueryStats stats;
      for (size_t i = w; i < list.size(); i += 2) {
        const bool left = i % 4 < 2;
        DeweyId got, expected;
        const DeweyId v = list[i].Child(0);
        Result<bool> found =
            left ? index_->LeftMatch(term, v, &got, &stats, &finger)
                 : index_->RightMatch(term, v, &got, &stats, &finger);
        const bool want = OracleMatch(list, v, left, &expected);
        if (!found.ok() || *found != want || (want && got != expected)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(index_->il_pool()->DebugTotalPins(), 0u);
}

TEST_F(IlFingerTest, ReadFaultDuringDescentLeavesFingerEmpty) {
  FaultInjectingPageStore* il = nullptr;
  DiskIndexOptions options = MemOptions();
  options.store_decorator = [&il](std::unique_ptr<PageStore> inner,
                                  std::string_view name)
      -> std::unique_ptr<PageStore> {
    if (name != "il") return inner;
    auto wrapped = std::make_unique<FaultInjectingPageStore>(std::move(inner));
    il = wrapped.get();
    return wrapped;
  };
  ASSERT_NO_FATAL_FAILURE(Build(options));
  ASSERT_NE(il, nullptr);
  const uint32_t gamma = index_->FindTerm("gamma")->id;
  const std::vector<DeweyId>& list = lists_[gamma];

  DiskIndex::IlFinger finger;
  CheckProbe(gamma, list.front(), /*left=*/false, &finger);
  ASSERT_FALSE(finger.empty());

  // The last posting lives on another leaf: the finger misses, and the
  // descent's first read fails.
  PageId first_leaf = kInvalidPage;
  PageId last_leaf = kInvalidPage;
  for (const IlEntry& e : WalkIlLeaves(*index_)) {
    if (e.term != gamma) continue;
    if (first_leaf == kInvalidPage) first_leaf = e.leaf;
    last_leaf = e.leaf;
  }
  ASSERT_NE(first_leaf, last_leaf);
  XKS_ASSERT_OK(index_->DropCaches());
  il->Arm();
  il->FailNthRead(1);
  DeweyId got;
  Result<bool> failed = index_->RightMatch(gamma, list.back(), &got, nullptr,
                                           &finger);
  EXPECT_TRUE(failed.status().IsIoError()) << failed.status().ToString();
  EXPECT_TRUE(finger.empty());
  EXPECT_EQ(index_->il_pool()->DebugTotalPins(), 0u);
  EXPECT_EQ(il->injected_errors(), 1u);

  // The fault was transient: the next probe descends again and is exact.
  CheckProbe(gamma, list.back(), /*left=*/false, &finger);
  CheckProbe(gamma, list.back(), /*left=*/true, &finger);
  EXPECT_EQ(index_->il_pool()->DebugTotalPins(), 0u);
}

TEST_F(IlFingerTest, MalformedSlotInCopiedLeafIsCorruption) {
  PageStore* il = nullptr;
  DiskIndexOptions options = MemOptions();
  options.store_decorator = [&il](std::unique_ptr<PageStore> inner,
                                  std::string_view name) {
    if (name == "il") il = inner.get();
    return inner;
  };
  ASSERT_NO_FATAL_FAILURE(Build(options));
  ASSERT_NE(il, nullptr);

  // A leaf wholly inside one term, with its last slot pointing off the
  // page.
  const std::vector<IlEntry> entries = WalkIlLeaves(*index_);
  size_t first = 0;
  size_t last = 0;
  for (size_t i = 0; i < entries.size() && last == 0;) {
    size_t j = i;
    while (j + 1 < entries.size() && entries[j + 1].leaf == entries[i].leaf) {
      ++j;
    }
    if (entries[i].term == entries[j].term && j - i >= 8) {
      first = i;
      last = j;
    }
    i = j + 1;
  }
  ASSERT_GE(last - first, 8u);
  Page page;
  XKS_ASSERT_OK(il->ReadPage(entries[first].leaf, &page));
  page.WriteU16(node_format::kNodeHeader + 2 * (last - first), 0xffff);
  XKS_ASSERT_OK(il->WritePage(entries[first].leaf, page));
  XKS_ASSERT_OK(index_->DropCaches());

  // The descent to slot 1 never reads the last slot, so it succeeds and
  // captures the leaf. Probing the gap before the last slot from the
  // copy has to read that slot.
  const uint32_t term = entries[first].term;
  DiskIndex::IlFinger finger;
  DeweyId got;
  Result<bool> ok = index_->RightMatch(term, entries[first + 1].id, &got,
                                       nullptr, &finger);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_FALSE(finger.empty());
  const DeweyId gap = entries[last - 1].id.Child(0);
  Result<bool> bad = index_->RightMatch(term, gap, &got, nullptr, &finger);
  EXPECT_TRUE(bad.status().IsCorruption()) << bad.status().ToString();
  bad = index_->LeftMatch(term, gap, &got, nullptr, &finger);
  EXPECT_TRUE(bad.status().IsCorruption()) << bad.status().ToString();
  EXPECT_EQ(index_->il_pool()->DebugTotalPins(), 0u);
}

}  // namespace
}  // namespace xksearch
