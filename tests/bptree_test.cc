#include "storage/bptree.h"

#include <cstdio>
#include <map>
#include <string>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "storage/bptree_mut.h"
#include "storage/node_format.h"
#include "test_util.h"

namespace xksearch {
namespace {

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

std::string Value(int i) { return "value-" + std::to_string(i); }

// Builds a tree with n sequential entries into a fresh MemPageStore.
void BuildTree(MemPageStore* store, int n, std::vector<uint8_t> meta = {}) {
  BPlusTreeBuilder builder(store);
  if (!meta.empty()) builder.SetMetadata(std::move(meta));
  for (int i = 0; i < n; ++i) {
    XKS_ASSERT_OK(builder.Add(Key(i), Value(i)));
  }
  XKS_ASSERT_OK(builder.Finish());
}

TEST(CompareBytesTest, MemcmpSemantics) {
  EXPECT_EQ(CompareBytes("a", "a"), 0);
  EXPECT_LT(CompareBytes("a", "b"), 0);
  EXPECT_GT(CompareBytes("b", "a"), 0);
  EXPECT_LT(CompareBytes("a", "aa"), 0);   // prefix first
  EXPECT_LT(CompareBytes("", "a"), 0);
  EXPECT_EQ(CompareBytes("", ""), 0);
  EXPECT_LT(CompareBytes(std::string_view("\x01", 1),
                         std::string_view("\xff", 1)),
            0);  // unsigned bytes
}

TEST(BPlusTreeTest, EmptyTree) {
  MemPageStore store;
  BuildTree(&store, 0);
  BufferPool pool(&store, 16);
  Result<BPlusTree> tree = BPlusTree::Open(&pool);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->entry_count(), 0u);
  EXPECT_EQ(tree->height(), 0u);
  EXPECT_TRUE(tree->Get("anything").status().IsNotFound());
  BPlusTree::Cursor cursor = tree->NewCursor();
  XKS_ASSERT_OK(cursor.Seek("x"));
  EXPECT_FALSE(cursor.Valid());
  XKS_ASSERT_OK(cursor.SeekToFirst());
  EXPECT_FALSE(cursor.Valid());
}

TEST(BPlusTreeTest, SingleEntry) {
  MemPageStore store;
  BuildTree(&store, 1);
  BufferPool pool(&store, 16);
  Result<BPlusTree> tree = BPlusTree::Open(&pool);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->height(), 1u);
  Result<std::string> v = tree->Get(Key(0));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value(0));
}

class BPlusTreeSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(BPlusTreeSizeTest, GetFindsEveryKey) {
  const int n = GetParam();
  MemPageStore store;
  BuildTree(&store, n);
  BufferPool pool(&store, 256);
  Result<BPlusTree> tree = BPlusTree::Open(&pool);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->entry_count(), static_cast<uint64_t>(n));
  for (int i = 0; i < n; i += (n > 500 ? 7 : 1)) {
    Result<std::string> v = tree->Get(Key(i));
    ASSERT_TRUE(v.ok()) << Key(i);
    EXPECT_EQ(*v, Value(i));
  }
  EXPECT_TRUE(tree->Get("zzz").status().IsNotFound());
  EXPECT_TRUE(tree->Get("aaa").status().IsNotFound());
}

TEST_P(BPlusTreeSizeTest, ForwardScanVisitsAllInOrder) {
  const int n = GetParam();
  MemPageStore store;
  BuildTree(&store, n);
  BufferPool pool(&store, 256);
  Result<BPlusTree> tree = BPlusTree::Open(&pool);
  ASSERT_TRUE(tree.ok());
  BPlusTree::Cursor cursor = tree->NewCursor();
  XKS_ASSERT_OK(cursor.SeekToFirst());
  int count = 0;
  std::string prev;
  while (cursor.Valid()) {
    if (count > 0) {
      EXPECT_LT(CompareBytes(prev, cursor.key()), 0);
    }
    prev = std::string(cursor.key());
    ++count;
    XKS_ASSERT_OK(cursor.Next());
  }
  EXPECT_EQ(count, n);
}

TEST_P(BPlusTreeSizeTest, BackwardScanVisitsAllInOrder) {
  const int n = GetParam();
  MemPageStore store;
  BuildTree(&store, n);
  BufferPool pool(&store, 256);
  Result<BPlusTree> tree = BPlusTree::Open(&pool);
  ASSERT_TRUE(tree.ok());
  BPlusTree::Cursor cursor = tree->NewCursor();
  XKS_ASSERT_OK(cursor.SeekToLast());
  int count = 0;
  while (cursor.Valid()) {
    ++count;
    XKS_ASSERT_OK(cursor.Prev());
  }
  EXPECT_EQ(count, n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BPlusTreeSizeTest,
                         ::testing::Values(2, 10, 100, 1000, 5000));

TEST(BPlusTreeTest, SeekLowerBoundSemantics) {
  MemPageStore store;
  // Keys key00000000, key00000002, ... (even only).
  {
    BPlusTreeBuilder builder(&store);
    for (int i = 0; i < 2000; i += 2) {
      XKS_ASSERT_OK(builder.Add(Key(i), Value(i)));
    }
    XKS_ASSERT_OK(builder.Finish());
  }
  BufferPool pool(&store, 256);
  Result<BPlusTree> tree = BPlusTree::Open(&pool);
  ASSERT_TRUE(tree.ok());
  BPlusTree::Cursor cursor = tree->NewCursor();

  // Exact key.
  XKS_ASSERT_OK(cursor.Seek(Key(10)));
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.key(), Key(10));
  // Missing key -> next greater.
  XKS_ASSERT_OK(cursor.Seek(Key(11)));
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.key(), Key(12));
  // Before the first key.
  XKS_ASSERT_OK(cursor.Seek("a"));
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.key(), Key(0));
  // After the last key.
  XKS_ASSERT_OK(cursor.Seek("z"));
  EXPECT_FALSE(cursor.Valid());
}

TEST(BPlusTreeTest, SeekForPrevUpperBoundSemantics) {
  MemPageStore store;
  {
    BPlusTreeBuilder builder(&store);
    for (int i = 0; i < 2000; i += 2) {
      XKS_ASSERT_OK(builder.Add(Key(i), Value(i)));
    }
    XKS_ASSERT_OK(builder.Finish());
  }
  BufferPool pool(&store, 256);
  Result<BPlusTree> tree = BPlusTree::Open(&pool);
  ASSERT_TRUE(tree.ok());
  BPlusTree::Cursor cursor = tree->NewCursor();

  XKS_ASSERT_OK(cursor.SeekForPrev(Key(10)));
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.key(), Key(10));
  XKS_ASSERT_OK(cursor.SeekForPrev(Key(11)));
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.key(), Key(10));
  XKS_ASSERT_OK(cursor.SeekForPrev("a"));
  EXPECT_FALSE(cursor.Valid());
  XKS_ASSERT_OK(cursor.SeekForPrev("z"));
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.key(), Key(1998));
}

TEST(BPlusTreeTest, SeekAcrossLeafBoundaries) {
  // Keys sized so several land per leaf; probe every boundary.
  MemPageStore store;
  const int n = 3000;
  BuildTree(&store, n);
  BufferPool pool(&store, 512);
  Result<BPlusTree> tree = BPlusTree::Open(&pool);
  ASSERT_TRUE(tree.ok());
  Rng rng(4);
  BPlusTree::Cursor cursor = tree->NewCursor();
  for (int trial = 0; trial < 500; ++trial) {
    const int i = static_cast<int>(rng.Uniform(n));
    // Seek a key strictly between i and i+1.
    const std::string probe = Key(i) + "!";
    XKS_ASSERT_OK(cursor.Seek(probe));
    if (i + 1 < n) {
      ASSERT_TRUE(cursor.Valid());
      EXPECT_EQ(cursor.key(), Key(i + 1));
    } else {
      EXPECT_FALSE(cursor.Valid());
    }
    XKS_ASSERT_OK(cursor.SeekForPrev(probe));
    ASSERT_TRUE(cursor.Valid());
    EXPECT_EQ(cursor.key(), Key(i));
  }
}

TEST(BPlusTreeBuilderTest, RejectsNonIncreasingKeys) {
  MemPageStore store;
  BPlusTreeBuilder builder(&store);
  XKS_ASSERT_OK(builder.Add("b", "1"));
  EXPECT_TRUE(builder.Add("b", "2").IsInvalidArgument());
  EXPECT_TRUE(builder.Add("a", "3").IsInvalidArgument());
}

TEST(BPlusTreeBuilderTest, RejectsOversizedEntry) {
  MemPageStore store;
  BPlusTreeBuilder builder(&store);
  EXPECT_TRUE(
      builder.Add("k", std::string(kPageSize, 'x')).IsInvalidArgument());
}

TEST(BPlusTreeTest, MetadataRoundTrip) {
  MemPageStore store;
  BuildTree(&store, 5, {1, 2, 3, 255});
  BufferPool pool(&store, 16);
  Result<BPlusTree> tree = BPlusTree::Open(&pool);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->metadata(), (std::vector<uint8_t>{1, 2, 3, 255}));
}

TEST(BPlusTreeTest, OpenRejectsGarbage) {
  MemPageStore store;
  ASSERT_TRUE(store.AllocatePage().ok());
  Page junk;
  junk.Zero();
  junk.WriteU32(0, 0xBADC0DE);
  XKS_ASSERT_OK(store.WritePage(0, junk));
  BufferPool pool(&store, 4);
  EXPECT_TRUE(BPlusTree::Open(&pool).status().IsCorruption());
}

TEST(BPlusTreeTest, PersistsAcrossFileReopen) {
  const std::string path = ::testing::TempDir() + "/bptree_persist.db";
  {
    Result<std::unique_ptr<FilePageStore>> store = FilePageStore::Create(path);
    ASSERT_TRUE(store.ok());
    BPlusTreeBuilder builder(store->get());
    for (int i = 0; i < 500; ++i) XKS_ASSERT_OK(builder.Add(Key(i), Value(i)));
    XKS_ASSERT_OK(builder.Finish());
  }
  {
    Result<std::unique_ptr<FilePageStore>> store = FilePageStore::Open(path);
    ASSERT_TRUE(store.ok());
    BufferPool pool(store->get(), 64);
    Result<BPlusTree> tree = BPlusTree::Open(&pool);
    ASSERT_TRUE(tree.ok());
    EXPECT_EQ(tree->entry_count(), 500u);
    Result<std::string> v = tree->Get(Key(123));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, Value(123));
  }
  std::remove(path.c_str());
}

TEST(BPlusTreeTest, VariableLengthKeysAndValues) {
  MemPageStore store;
  std::map<std::string, std::string> expected;
  {
    BPlusTreeBuilder builder(&store);
    Rng rng(9);
    std::string key;
    for (int i = 0; i < 1500; ++i) {
      key += static_cast<char>('a' + rng.Uniform(4));  // growing keys
      const std::string value(rng.Uniform(60), 'v');
      XKS_ASSERT_OK(builder.Add(key, value));
      expected[key] = value;
    }
    XKS_ASSERT_OK(builder.Finish());
  }
  BufferPool pool(&store, 512);
  Result<BPlusTree> tree = BPlusTree::Open(&pool);
  ASSERT_TRUE(tree.ok());
  BPlusTree::Cursor cursor = tree->NewCursor();
  XKS_ASSERT_OK(cursor.SeekToFirst());
  auto it = expected.begin();
  while (cursor.Valid()) {
    ASSERT_NE(it, expected.end());
    EXPECT_EQ(cursor.key(), it->first);
    EXPECT_EQ(cursor.value(), it->second);
    ++it;
    XKS_ASSERT_OK(cursor.Next());
  }
  EXPECT_EQ(it, expected.end());
}

TEST(BPlusTreeTest, TinyBufferPoolStillWorks) {
  MemPageStore store;
  BuildTree(&store, 2000);
  BufferPool pool(&store, 2);  // pathological: barely fits a root+leaf
  Result<BPlusTree> tree = BPlusTree::Open(&pool);
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 2000; i += 97) {
    Result<std::string> v = tree->Get(Key(i));
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_EQ(*v, Value(i));
  }
  EXPECT_GT(pool.total_misses(), 10u);
}

// Points slot `slot` of node page `id` off the page, as a torn or
// bit-flipped write might.
void BreakSlot(MemPageStore* store, PageId id, size_t slot) {
  Page page;
  XKS_ASSERT_OK(store->ReadPage(id, &page));
  page.WriteU16(node_format::kNodeHeader + 2 * slot, 0xffff);
  XKS_ASSERT_OK(store->WritePage(id, page));
}

// Checks that every read routed through the broken node reports
// Corruption, through both the read-only and the mutable tree, and
// leaks no pin.
void ExpectCorruptionAt(MemPageStore* store, const std::string& key) {
  BufferPool pool(store, 16);
  Result<BPlusTree> tree = BPlusTree::Open(&pool);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_TRUE(tree->Get(key).status().IsCorruption());
  BPlusTree::Cursor cursor = tree->NewCursor();
  EXPECT_TRUE(cursor.Seek(key).IsCorruption());
  EXPECT_FALSE(cursor.Valid());
  EXPECT_TRUE(cursor.SeekForPrev(key).IsCorruption());
  EXPECT_FALSE(cursor.Valid());
  EXPECT_EQ(pool.DebugTotalPins(), 0u);

  BufferPool mut_pool(store, 16);
  Result<BPlusTreeMut> mut = BPlusTreeMut::Open(&mut_pool);
  ASSERT_TRUE(mut.ok()) << mut.status().ToString();
  EXPECT_TRUE(mut->Get(key).status().IsCorruption());
  std::string found_key, found_value;
  EXPECT_TRUE(mut->FindFloor(key, &found_key, &found_value)
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(mut->FindCeil(key, &found_key, &found_value)
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(mut->Put(key, "v").IsCorruption());
  EXPECT_EQ(mut_pool.DebugTotalPins(), 0u);
}

// A binary search over a node starts at its middle slot, so breaking
// that slot puts it on the search path of every key the node routes.
// The descent must report it rather than compare it as an empty key, in
// release and debug builds alike.
TEST(BPlusTreeCorruptionTest, MalformedInternalSlotOnDescentIsCorruption) {
  MemPageStore store;
  BuildTree(&store, 2000);
  Page meta;
  XKS_ASSERT_OK(store.ReadPage(0, &meta));
  ASSERT_GE(meta.ReadU32(node_format::kMetaHeight), 2u);
  const PageId root = meta.ReadU32(node_format::kMetaRoot);
  Page root_page;
  XKS_ASSERT_OK(store.ReadPage(root, &root_page));
  const size_t count = node_format::NodeView(root_page).count();
  ASSERT_GE(count, 2u);
  BreakSlot(&store, root, count / 2);
  BreakSlot(&store, root, count - 1);

  for (int i : {0, 1000, 1999}) {
    SCOPED_TRACE(i);
    ExpectCorruptionAt(&store, Key(i));
  }
  // SeekToLast routes through the last child, whose slot is broken too.
  BufferPool pool(&store, 16);
  Result<BPlusTree> tree = BPlusTree::Open(&pool);
  ASSERT_TRUE(tree.ok());
  BPlusTree::Cursor cursor = tree->NewCursor();
  EXPECT_TRUE(cursor.SeekToLast().IsCorruption());
  EXPECT_EQ(pool.DebugTotalPins(), 0u);
}

TEST(BPlusTreeCorruptionTest, MalformedLeafSlotOnSearchPathIsCorruption) {
  MemPageStore store;
  BuildTree(&store, 2000);
  PageId leaf = kInvalidPage;
  size_t count = 0;
  {
    BufferPool pool(&store, 16);
    Result<BPlusTree> tree = BPlusTree::Open(&pool);
    ASSERT_TRUE(tree.ok());
    BPlusTree::Cursor cursor = tree->NewCursor();
    XKS_ASSERT_OK(cursor.Seek(Key(1000)));
    ASSERT_TRUE(cursor.Valid());
    leaf = cursor.leaf_id();
    count = node_format::NodeView(cursor.leaf_page()).count();
  }
  ASSERT_GE(count, 2u);
  BreakSlot(&store, leaf, count / 2);

  ExpectCorruptionAt(&store, Key(1000));
  // Keys routed to other leaves never touch the broken slot.
  BufferPool pool(&store, 16);
  Result<BPlusTree> tree = BPlusTree::Open(&pool);
  ASSERT_TRUE(tree.ok());
  for (int i : {0, 1999}) {
    Result<std::string> v = tree->Get(Key(i));
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_EQ(*v, Value(i));
  }
}

}  // namespace
}  // namespace xksearch
