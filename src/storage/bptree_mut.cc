#include "storage/bptree_mut.h"

#include <cassert>

#include "storage/bptree.h"  // CompareBytes

namespace xksearch {

namespace nf = node_format;

namespace {

/// First index in `entries` with key >= `key`.
size_t LowerBound(
    const std::vector<std::pair<std::string, std::string>>& entries,
    std::string_view key) {
  size_t lo = 0, hi = entries.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (CompareBytes(entries[mid].first, key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Split position for an oversized entry vector: the smallest cut with
/// at least half the payload bytes on the left, clamped so both sides
/// stay non-empty.
size_t SplitPoint(
    const std::vector<std::pair<std::string, std::string>>& entries) {
  size_t total = 0;
  for (const auto& [k, v] : entries) total += nf::EntrySize(k, v);
  size_t acc = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    acc += nf::EntrySize(entries[i].first, entries[i].second);
    if (acc * 2 >= total) {
      return std::min(std::max<size_t>(i + 1, 1), entries.size() - 1);
    }
  }
  return entries.size() - 1;
}

}  // namespace

Result<BPlusTreeMut> BPlusTreeMut::Create(BufferPool* pool) {
  BPlusTreeMut tree(pool);
  XKS_ASSIGN_OR_RETURN(MutPageRef meta, pool->NewPage());
  if (meta.id() != 0) {
    return Status::InvalidArgument("Create requires an empty store");
  }
  meta.page().Zero();
  meta.Release();
  XKS_RETURN_NOT_OK(tree.Flush());
  return tree;
}

Result<BPlusTreeMut> BPlusTreeMut::Open(BufferPool* pool) {
  XKS_ASSIGN_OR_RETURN(PageRef meta_ref, pool->Fetch(0));
  const Page& meta = meta_ref.page();
  if (meta.ReadU32(nf::kMetaMagic) != nf::kMagic) {
    return Status::Corruption("not a B+tree file (bad magic)");
  }
  if (meta.ReadU32(nf::kMetaVersion) != nf::kVersion) {
    return Status::Corruption("unsupported B+tree version");
  }
  BPlusTreeMut tree(pool);
  tree.root_ = meta.ReadU32(nf::kMetaRoot);
  tree.height_ = meta.ReadU32(nf::kMetaHeight);
  tree.entry_count_ = meta.ReadU64(nf::kMetaEntryCount);
  tree.first_leaf_ = meta.ReadU32(nf::kMetaFirstLeaf);
  const uint32_t user_len = meta.ReadU32(nf::kMetaUserLen);
  if (nf::kMetaUserData + user_len > kPageSize) {
    return Status::Corruption("metadata blob overflows meta page");
  }
  tree.metadata_.assign(meta.bytes(nf::kMetaUserData),
                        meta.bytes(nf::kMetaUserData) + user_len);
  return tree;
}

Status BPlusTreeMut::Flush() {
  XKS_ASSIGN_OR_RETURN(MutPageRef meta, pool_->FetchMut(0));
  Page& page = meta.page();
  page.Zero();
  page.WriteU32(nf::kMetaMagic, nf::kMagic);
  page.WriteU32(nf::kMetaVersion, nf::kVersion);
  page.WriteU32(nf::kMetaRoot, root_);
  page.WriteU32(nf::kMetaHeight, height_);
  page.WriteU64(nf::kMetaEntryCount, entry_count_);
  page.WriteU32(nf::kMetaFirstLeaf, first_leaf_);
  if (nf::kMetaUserData + metadata_.size() > kPageSize) {
    return Status::InvalidArgument("B+tree metadata blob too large");
  }
  page.WriteU32(nf::kMetaUserLen, static_cast<uint32_t>(metadata_.size()));
  if (!metadata_.empty()) {
    std::memcpy(page.bytes(nf::kMetaUserData), metadata_.data(),
                metadata_.size());
  }
  meta.Release();
  return pool_->FlushAll();
}

Result<PageId> BPlusTreeMut::DescendToLeaf(std::string_view key,
                                           std::vector<PathStep>* path) const {
  PageId cur = root_;
  for (uint32_t level = height_; level > 1; --level) {
    XKS_ASSIGN_OR_RETURN(PageRef ref, pool_->Fetch(cur));
    const nf::NodeView node(ref.page());
    if (node.IsLeaf()) {
      return Status::Corruption("unexpected leaf above leaf level");
    }
    size_t idx;
    if (!node.UpperBound(key, &idx)) {
      return Status::Corruption("malformed internal node entry");
    }
    if (path != nullptr) path->push_back(PathStep{cur, idx});
    if (!node.Child(idx, &cur)) {
      return Status::Corruption("malformed internal node entry");
    }
  }
  return cur;
}

Status BPlusTreeMut::WriteNode(PageId page_id,
                               const nf::ParsedNode& node) {
  XKS_ASSIGN_OR_RETURN(MutPageRef ref, pool_->FetchMut(page_id));
  node.WriteTo(&ref.page());
  return Status::OK();
}

Status BPlusTreeMut::Put(std::string_view key, std::string_view value) {
  if (nf::EntrySize(key, value) > nf::kNodeCapacity) {
    return Status::InvalidArgument("entry too large for a page");
  }

  if (root_ == kInvalidPage) {
    XKS_ASSIGN_OR_RETURN(MutPageRef page, pool_->NewPage());
    nf::ParsedNode leaf;
    leaf.leaf = true;
    leaf.entries.emplace_back(std::string(key), std::string(value));
    leaf.WriteTo(&page.page());
    root_ = page.id();
    first_leaf_ = page.id();
    height_ = 1;
    entry_count_ = 1;
    return Status::OK();
  }

  std::vector<PathStep> path;
  XKS_ASSIGN_OR_RETURN(const PageId leaf_id, DescendToLeaf(key, &path));
  nf::ParsedNode leaf;
  {
    XKS_ASSIGN_OR_RETURN(PageRef ref, pool_->Fetch(leaf_id));
    XKS_ASSIGN_OR_RETURN(leaf, nf::ParsedNode::ReadFrom(ref.page()));
  }
  const size_t pos = LowerBound(leaf.entries, key);
  if (pos < leaf.entries.size() &&
      CompareBytes(leaf.entries[pos].first, key) == 0) {
    leaf.entries[pos].second.assign(value);  // upsert
  } else {
    leaf.entries.insert(leaf.entries.begin() + static_cast<long>(pos),
                        {std::string(key), std::string(value)});
    ++entry_count_;
  }
  if (leaf.SerializedSize() <= kPageSize) {
    return WriteNode(leaf_id, leaf);
  }
  return SplitLeaf(leaf_id, std::move(leaf), std::move(path));
}

Status BPlusTreeMut::SplitLeaf(PageId page_id, nf::ParsedNode node,
                               std::vector<PathStep> path) {
  const size_t mid = SplitPoint(node.entries);

  XKS_ASSIGN_OR_RETURN(MutPageRef right_page, pool_->NewPage());
  const PageId right_id = right_page.id();

  nf::ParsedNode right;
  right.leaf = true;
  right.entries.assign(node.entries.begin() + static_cast<long>(mid),
                       node.entries.end());
  right.link_a = node.link_a;  // old next leaf
  right.link_b = page_id;
  node.entries.resize(mid);
  const PageId old_next = right.link_a;
  node.link_a = right_id;

  const std::string separator = right.entries.front().first;
  right.WriteTo(&right_page.page());
  right_page.Release();
  XKS_RETURN_NOT_OK(WriteNode(page_id, node));

  if (old_next != kInvalidPage) {
    XKS_ASSIGN_OR_RETURN(MutPageRef next_ref, pool_->FetchMut(old_next));
    next_ref.page().WriteU32(nf::kNodeLinkB, right_id);
  }
  return InsertIntoParent(std::move(path), separator, right_id);
}

Status BPlusTreeMut::InsertIntoParent(std::vector<PathStep> path,
                                      std::string separator,
                                      PageId right_child) {
  if (path.empty()) {
    // Split reached the root: grow the tree by one level.
    XKS_ASSIGN_OR_RETURN(MutPageRef page, pool_->NewPage());
    nf::ParsedNode new_root;
    new_root.leaf = false;
    new_root.link_a = root_;
    new_root.entries.emplace_back(std::move(separator),
                                  nf::ParsedNode::EncodeChild(right_child));
    new_root.WriteTo(&page.page());
    root_ = page.id();
    ++height_;
    return Status::OK();
  }

  const PathStep step = path.back();
  path.pop_back();
  nf::ParsedNode parent;
  {
    XKS_ASSIGN_OR_RETURN(PageRef ref, pool_->Fetch(step.page));
    XKS_ASSIGN_OR_RETURN(parent, nf::ParsedNode::ReadFrom(ref.page()));
  }
  // The split child sat at children index `child_idx`; its new right
  // sibling becomes children index child_idx + 1, i.e. entries index
  // child_idx.
  parent.entries.insert(
      parent.entries.begin() + static_cast<long>(step.child_idx),
      {std::move(separator), nf::ParsedNode::EncodeChild(right_child)});
  if (parent.SerializedSize() <= kPageSize) {
    return WriteNode(step.page, parent);
  }
  return SplitInternal(step.page, std::move(parent), std::move(path));
}

Status BPlusTreeMut::SplitInternal(PageId page_id, nf::ParsedNode node,
                                   std::vector<PathStep> path) {
  assert(node.entries.size() >= 2);
  const size_t mid = SplitPoint(node.entries);

  // The median separator moves up; the right node's leftmost child is
  // the median's child.
  std::string up_key = node.entries[mid].first;
  nf::ParsedNode right;
  right.leaf = false;
  right.link_a = node.ChildAt(mid + 1);
  right.entries.assign(node.entries.begin() + static_cast<long>(mid) + 1,
                       node.entries.end());
  node.entries.resize(mid);

  XKS_ASSIGN_OR_RETURN(MutPageRef right_page, pool_->NewPage());
  const PageId right_id = right_page.id();
  right.WriteTo(&right_page.page());
  right_page.Release();
  XKS_RETURN_NOT_OK(WriteNode(page_id, node));
  return InsertIntoParent(std::move(path), std::move(up_key), right_id);
}

Status BPlusTreeMut::Delete(std::string_view key) {
  if (root_ == kInvalidPage) {
    return Status::NotFound("key not present");
  }
  std::vector<PathStep> path;
  XKS_ASSIGN_OR_RETURN(const PageId leaf_id, DescendToLeaf(key, &path));
  nf::ParsedNode leaf;
  {
    XKS_ASSIGN_OR_RETURN(PageRef ref, pool_->Fetch(leaf_id));
    XKS_ASSIGN_OR_RETURN(leaf, nf::ParsedNode::ReadFrom(ref.page()));
  }
  const size_t pos = LowerBound(leaf.entries, key);
  if (pos >= leaf.entries.size() ||
      CompareBytes(leaf.entries[pos].first, key) != 0) {
    return Status::NotFound("key not present");
  }
  leaf.entries.erase(leaf.entries.begin() + static_cast<long>(pos));
  --entry_count_;

  if (!leaf.entries.empty()) {
    return WriteNode(leaf_id, leaf);
  }

  // The leaf emptied: unlink it from the sibling chain and the parent.
  // (The page itself is not recycled; see the class comment.)
  if (leaf.link_b != kInvalidPage) {
    XKS_ASSIGN_OR_RETURN(MutPageRef prev, pool_->FetchMut(leaf.link_b));
    prev.page().WriteU32(nf::kNodeLinkA, leaf.link_a);
  }
  if (leaf.link_a != kInvalidPage) {
    XKS_ASSIGN_OR_RETURN(MutPageRef next, pool_->FetchMut(leaf.link_a));
    next.page().WriteU32(nf::kNodeLinkB, leaf.link_b);
  }
  if (first_leaf_ == leaf_id) first_leaf_ = leaf.link_a;

  if (path.empty()) {
    // The root leaf emptied: the tree is empty again.
    root_ = kInvalidPage;
    first_leaf_ = kInvalidPage;
    height_ = 0;
    return Status::OK();
  }
  return RemoveFromParent(std::move(path));
}

Status BPlusTreeMut::RemoveFromParent(std::vector<PathStep> path) {
  const PathStep step = path.back();
  path.pop_back();
  nf::ParsedNode parent;
  {
    XKS_ASSIGN_OR_RETURN(PageRef ref, pool_->Fetch(step.page));
    XKS_ASSIGN_OR_RETURN(parent, nf::ParsedNode::ReadFrom(ref.page()));
  }
  if (step.child_idx == 0) {
    if (parent.entries.empty()) {
      // This internal node lost its only child; remove it as well.
      if (path.empty()) {
        root_ = kInvalidPage;
        height_ = 0;
        return Status::OK();
      }
      return RemoveFromParent(std::move(path));
    }
    // Promote the first entry's child to the leftmost slot.
    parent.link_a = parent.ChildAt(1);
    parent.entries.erase(parent.entries.begin());
  } else {
    parent.entries.erase(parent.entries.begin() +
                         static_cast<long>(step.child_idx) - 1);
  }
  XKS_RETURN_NOT_OK(WriteNode(step.page, parent));
  if (path.empty()) {
    return CollapseRoot();
  }
  return Status::OK();
}

Status BPlusTreeMut::CollapseRoot() {
  // A root with a single child routes everything through it; shrink the
  // tree until the root has at least two children or is a leaf.
  while (height_ > 1) {
    XKS_ASSIGN_OR_RETURN(PageRef ref, pool_->Fetch(root_));
    const nf::NodeView node(ref.page());
    if (node.IsLeaf() || node.count() > 0) break;
    const PageId only_child = node.link_a();
    ref.Release();
    root_ = only_child;
    --height_;
  }
  return Status::OK();
}

Result<bool> BPlusTreeMut::FindFloor(std::string_view key,
                                     std::string* found_key,
                                     std::string* found_value) const {
  if (root_ == kInvalidPage) return false;
  XKS_ASSIGN_OR_RETURN(PageId leaf_id, DescendToLeaf(key, nullptr));
  // The routed leaf holds every key in its range; if nothing there is
  // <= key, the floor ends the previous leaf.
  for (; leaf_id != kInvalidPage;) {
    XKS_ASSIGN_OR_RETURN(PageRef ref, pool_->Fetch(leaf_id));
    const nf::NodeView node(ref.page());
    size_t ub;
    if (!node.UpperBound(key, &ub)) {
      return Status::Corruption("malformed leaf entry");
    }
    if (ub > 0) {
      std::string_view k, v;
      if (!node.Entry(ub - 1, &k, &v)) {
        return Status::Corruption("malformed leaf entry");
      }
      found_key->assign(k);
      found_value->assign(v);
      return true;
    }
    leaf_id = node.link_b();
  }
  return false;
}

Result<bool> BPlusTreeMut::FindCeil(std::string_view key,
                                    std::string* found_key,
                                    std::string* found_value) const {
  if (root_ == kInvalidPage) return false;
  XKS_ASSIGN_OR_RETURN(PageId leaf_id, DescendToLeaf(key, nullptr));
  for (; leaf_id != kInvalidPage;) {
    XKS_ASSIGN_OR_RETURN(PageRef ref, pool_->Fetch(leaf_id));
    const nf::NodeView node(ref.page());
    size_t lb;
    if (!node.LowerBound(key, &lb)) {
      return Status::Corruption("malformed leaf entry");
    }
    if (lb < node.count()) {
      std::string_view k, v;
      if (!node.Entry(lb, &k, &v)) {
        return Status::Corruption("malformed leaf entry");
      }
      found_key->assign(k);
      found_value->assign(v);
      return true;
    }
    leaf_id = node.link_a();
  }
  return false;
}

Result<std::string> BPlusTreeMut::Get(std::string_view key) const {
  if (root_ == kInvalidPage) {
    return Status::NotFound("key not present");
  }
  XKS_ASSIGN_OR_RETURN(const PageId leaf_id, DescendToLeaf(key, nullptr));
  XKS_ASSIGN_OR_RETURN(PageRef ref, pool_->Fetch(leaf_id));
  const nf::NodeView node(ref.page());
  size_t pos;
  std::string_view k, v;
  if (!node.LowerBound(key, &pos) ||
      (pos < node.count() && !node.Entry(pos, &k, &v))) {
    return Status::Corruption("malformed leaf entry");
  }
  if (pos < node.count() && CompareBytes(k, key) == 0) {
    return std::string(v);
  }
  return Status::NotFound("key not present");
}

}  // namespace xksearch
