#ifndef XKSEARCH_STORAGE_NODE_FORMAT_H_
#define XKSEARCH_STORAGE_NODE_FORMAT_H_

// Internal page layout shared by the bulk-loaded reader (bptree.cc) and
// the mutable tree (bptree_mut.cc). Not part of the public API.
//
// Meta page (page 0):
//   [u32 magic][u32 version][u32 root][u32 height][u64 entries]
//   [u32 first_leaf][u32 user_len][user bytes...]
// Node page:
//   [u8 type][u16 count][u32 link_a][u32 link_b][u16 slots x count][heap]
// where a slot points at [varint klen][key][varint vlen][value]; leaf
// nodes use link_a/link_b as next/prev leaf, internal nodes use link_a
// as the leftmost child and store each further child as a 4-byte value.

#include <cassert>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "storage/page.h"

namespace xksearch {
namespace node_format {

inline constexpr uint32_t kMagic = 0x54424B58;  // "XKBT"
inline constexpr uint32_t kVersion = 1;
inline constexpr size_t kMetaMagic = 0;
inline constexpr size_t kMetaVersion = 4;
inline constexpr size_t kMetaRoot = 8;
inline constexpr size_t kMetaHeight = 12;
inline constexpr size_t kMetaEntryCount = 16;
inline constexpr size_t kMetaFirstLeaf = 24;
inline constexpr size_t kMetaUserLen = 28;
inline constexpr size_t kMetaUserData = 32;

inline constexpr uint8_t kNodeInternal = 0;
inline constexpr uint8_t kNodeLeaf = 1;
inline constexpr size_t kNodeType = 0;
inline constexpr size_t kNodeCount = 1;
inline constexpr size_t kNodeLinkA = 3;
inline constexpr size_t kNodeLinkB = 7;
inline constexpr size_t kNodeHeader = 11;
inline constexpr size_t kNodeCapacity = kPageSize - kNodeHeader;
/// Largest slot count whose slot array still fits a page: a node
/// claiming more is malformed, and reading its slots would run off the
/// page.
inline constexpr size_t kMaxSlots = kNodeCapacity / 2;

size_t VarintSize(size_t v);
void PutVarintTo(uint8_t* dst, size_t* off, uint32_t v);
bool ReadVarintFrom(const uint8_t* src, size_t limit, size_t* off,
                    uint32_t* v);

/// Serialized size of one entry including its slot.
inline size_t EntrySize(std::string_view key, std::string_view value) {
  return VarintSize(key.size()) + key.size() + VarintSize(value.size()) +
         value.size() + 2;
}

/// Read-side view over a node page (zero-copy).
class NodeView {
 public:
  explicit NodeView(const Page& page) : page_(page) {}

  bool IsLeaf() const { return page_.ReadU8(kNodeType) == kNodeLeaf; }
  size_t count() const { return page_.ReadU16(kNodeCount); }
  PageId link_a() const { return page_.ReadU32(kNodeLinkA); }
  PageId link_b() const { return page_.ReadU32(kNodeLinkB); }

  /// Reads slot `i`; false when the slot or its entry is malformed
  /// (runs off the page).
  bool Entry(size_t i, std::string_view* key, std::string_view* value) const;

  /// First slot with key >= / > `key`, in `*slot`. False when a slot the
  /// binary search visits is malformed; callers report Corruption.
  bool LowerBound(std::string_view key, size_t* slot) const {
    return Bound(key, /*upper=*/false, slot);
  }
  bool UpperBound(std::string_view key, size_t* slot) const {
    return Bound(key, /*upper=*/true, slot);
  }

  /// Internal nodes: child page routing. False on a malformed slot or a
  /// child value that is not a 4-byte page id.
  bool ChildFor(std::string_view key, PageId* child) const {
    size_t idx;
    return UpperBound(key, &idx) && Child(idx, child);
  }
  bool Child(size_t idx, PageId* child) const;

 private:
  bool Bound(std::string_view key, bool upper, size_t* slot) const;

  const Page& page_;
};

/// Fully-decoded node for the mutable tree's parse-modify-rewrite cycle.
/// Internal nodes keep the leftmost child in `link_a` and each entry's
/// value is its 4-byte child page id.
struct ParsedNode {
  bool leaf = true;
  PageId link_a = kInvalidPage;
  PageId link_b = kInvalidPage;
  std::vector<std::pair<std::string, std::string>> entries;

  static Result<ParsedNode> ReadFrom(const Page& page);
  void WriteTo(Page* page) const;

  /// Bytes this node needs when serialized (header + slots + heap).
  size_t SerializedSize() const;

  PageId ChildAt(size_t idx) const {
    if (idx == 0) return link_a;
    assert(entries[idx - 1].second.size() == 4);
    PageId child;
    std::memcpy(&child, entries[idx - 1].second.data(), 4);
    return child;
  }

  static std::string EncodeChild(PageId child) {
    return std::string(reinterpret_cast<const char*>(&child), 4);
  }
};

}  // namespace node_format
}  // namespace xksearch

#endif  // XKSEARCH_STORAGE_NODE_FORMAT_H_
