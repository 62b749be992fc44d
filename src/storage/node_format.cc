#include "storage/node_format.h"

#include "storage/bptree.h"  // CompareBytes

namespace xksearch {
namespace node_format {

size_t VarintSize(size_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    ++n;
    v >>= 7;
  }
  return n;
}

void PutVarintTo(uint8_t* dst, size_t* off, uint32_t v) {
  while (v >= 0x80) {
    dst[(*off)++] = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  dst[(*off)++] = static_cast<uint8_t>(v);
}

bool ReadVarintFrom(const uint8_t* src, size_t limit, size_t* off,
                    uint32_t* v) {
  uint32_t result = 0;
  for (int shift = 0; shift <= 28; shift += 7) {
    if (*off >= limit) return false;
    const uint8_t byte = src[(*off)++];
    result |= static_cast<uint32_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
  }
  return false;
}

bool NodeView::Entry(size_t i, std::string_view* key,
                     std::string_view* value) const {
  if (i >= kMaxSlots) return false;
  size_t off = page_.ReadU16(kNodeHeader + 2 * i);
  uint32_t klen = 0;
  if (!ReadVarintFrom(page_.data.data(), kPageSize, &off, &klen)) return false;
  if (off + klen > kPageSize) return false;
  *key =
      std::string_view(reinterpret_cast<const char*>(page_.bytes(off)), klen);
  off += klen;
  uint32_t vlen = 0;
  if (!ReadVarintFrom(page_.data.data(), kPageSize, &off, &vlen)) return false;
  if (off + vlen > kPageSize) return false;
  *value =
      std::string_view(reinterpret_cast<const char*>(page_.bytes(off)), vlen);
  return true;
}

bool NodeView::Bound(std::string_view key, bool upper, size_t* slot) const {
  size_t lo = 0, hi = count();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    std::string_view k, v;
    if (!Entry(mid, &k, &v)) return false;
    const int c = CompareBytes(k, key);
    if (upper ? c <= 0 : c < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *slot = lo;
  return true;
}

bool NodeView::Child(size_t idx, PageId* child) const {
  if (idx == 0) {
    *child = link_a();
    return true;
  }
  std::string_view k, v;
  if (!Entry(idx - 1, &k, &v) || v.size() != 4) return false;
  std::memcpy(child, v.data(), 4);
  return true;
}

Result<ParsedNode> ParsedNode::ReadFrom(const Page& page) {
  ParsedNode node;
  const NodeView view(page);
  node.leaf = view.IsLeaf();
  node.link_a = view.link_a();
  node.link_b = view.link_b();
  const size_t n = view.count();
  node.entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string_view key, value;
    if (!view.Entry(i, &key, &value)) {
      return Status::Corruption("malformed node entry");
    }
    node.entries.emplace_back(std::string(key), std::string(value));
  }
  return node;
}

void ParsedNode::WriteTo(Page* page) const {
  assert(SerializedSize() <= kPageSize);
  page->Zero();
  page->WriteU8(kNodeType, leaf ? kNodeLeaf : kNodeInternal);
  page->WriteU16(kNodeCount, static_cast<uint16_t>(entries.size()));
  page->WriteU32(kNodeLinkA, link_a);
  page->WriteU32(kNodeLinkB, link_b);
  size_t heap = kNodeHeader + 2 * entries.size();
  for (size_t i = 0; i < entries.size(); ++i) {
    const auto& [key, value] = entries[i];
    page->WriteU16(kNodeHeader + 2 * i, static_cast<uint16_t>(heap));
    PutVarintTo(page->data.data(), &heap, static_cast<uint32_t>(key.size()));
    std::memcpy(page->bytes(heap), key.data(), key.size());
    heap += key.size();
    PutVarintTo(page->data.data(), &heap, static_cast<uint32_t>(value.size()));
    std::memcpy(page->bytes(heap), value.data(), value.size());
    heap += value.size();
  }
}

size_t ParsedNode::SerializedSize() const {
  size_t total = kNodeHeader;
  for (const auto& [key, value] : entries) {
    total += EntrySize(key, value);
  }
  return total;
}

}  // namespace node_format
}  // namespace xksearch
