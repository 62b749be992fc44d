#include "storage/disk_index.h"

#include <sys/stat.h>

#include <cstring>
#include <utility>

#include "common/bitio.h"
#include "storage/node_format.h"

namespace xksearch {

namespace {

// Index metadata blob: level table + codec flags.
constexpr uint8_t kMetaFormatVersion = 2;

// WAL frame store ids (stable on-disk protocol, do not renumber).
constexpr uint8_t kWalStoreIl = 0;
constexpr uint8_t kWalStoreScan = 1;
constexpr uint8_t kWalStoreDict = 2;

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

// Opens `<prefix>.wal` (creating it when `create` allows) through the
// options' store decorator, like every other store of the index.
Result<std::unique_ptr<Wal>> OpenWalFile(const std::string& path_prefix,
                                         const DiskIndexOptions& options,
                                         bool create) {
  const std::string path = path_prefix + ".wal";
  std::unique_ptr<PageStore> store;
  if (FileExists(path)) {
    XKS_ASSIGN_OR_RETURN(store, FilePageStore::Open(path));
  } else if (create) {
    XKS_ASSIGN_OR_RETURN(store, FilePageStore::Create(path));
  } else {
    return Status::NotFound("no write-ahead log at " + path);
  }
  if (options.store_decorator) {
    store = options.store_decorator(std::move(store), "wal");
  }
  return Wal::Open(std::move(store));
}

// Records a crash recovery in the process-wide counters, but only when
// the replay actually applied something: an empty (already-reset) log is
// the normal state after every clean Finish.
void RecordRecovery(const WalRecoveryStats& stats) {
  if (stats.batches_applied == 0) return;
  WalCounters& counters = WalCounters::Instance();
  counters.recoveries.fetch_add(1, std::memory_order_relaxed);
  counters.batches_replayed.fetch_add(stats.batches_applied,
                                      std::memory_order_relaxed);
  counters.bytes_replayed.fetch_add(stats.bytes_scanned,
                                    std::memory_order_relaxed);
}

void AppendBigEndian32(uint32_t v, std::string* out) {
  out->push_back(static_cast<char>((v >> 24) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>(v & 0xff));
}

bool HasTermPrefix(std::string_view key, uint32_t term) {
  if (key.size() < 4) return false;
  const auto* p = reinterpret_cast<const uint8_t*>(key.data());
  return (uint32_t{p[0]} << 24 | uint32_t{p[1]} << 16 | uint32_t{p[2]} << 8 |
          uint32_t{p[3]}) == term;
}

std::vector<uint8_t> EncodeIndexMeta(const LevelTable& table,
                                     bool compress_dewey, bool delta_compress,
                                     uint64_t total_postings,
                                     const TokenizerOptions& tokenizer) {
  std::vector<uint8_t> out;
  out.push_back(kMetaFormatVersion);
  out.push_back(compress_dewey ? 1 : 0);
  out.push_back(delta_compress ? 1 : 0);
  PutVarint64(&out, total_postings);
  out.push_back(tokenizer.lowercase ? 1 : 0);
  PutVarint64(&out, tokenizer.min_length);
  table.EncodeTo(&out);
  return out;
}

struct IndexMeta {
  LevelTable table;
  bool compress_dewey;
  bool delta_compress;
  uint64_t total_postings;
  TokenizerOptions tokenizer;
};

Result<IndexMeta> DecodeIndexMeta(const std::vector<uint8_t>& blob) {
  if (blob.size() < 3 || blob[0] != kMetaFormatVersion) {
    return Status::Corruption("bad index metadata header");
  }
  IndexMeta meta;
  meta.compress_dewey = blob[1] != 0;
  meta.delta_compress = blob[2] != 0;
  size_t pos = 3;
  if (!GetVarint64(blob.data(), blob.size(), &pos, &meta.total_postings)) {
    return Status::Corruption("bad index metadata postings count");
  }
  if (pos >= blob.size()) {
    return Status::Corruption("bad index metadata tokenizer flags");
  }
  meta.tokenizer.lowercase = blob[pos++] != 0;
  uint64_t min_length = 0;
  if (!GetVarint64(blob.data(), blob.size(), &pos, &min_length)) {
    return Status::Corruption("bad index metadata tokenizer min length");
  }
  meta.tokenizer.min_length = static_cast<size_t>(min_length);
  XKS_ASSIGN_OR_RETURN(meta.table,
                       LevelTable::DecodeFrom(blob.data(), blob.size(), &pos));
  return meta;
}

}  // namespace

void DiskIndex::EncodeIlKey(const DeweyCodec& codec, uint32_t term,
                            const DeweyId& id, std::string* out) {
  std::vector<uint8_t> key;
  EncodeIlKey(codec, term, id, &key);
  out->assign(key.begin(), key.end());
}

void DiskIndex::EncodeIlKey(const DeweyCodec& codec, uint32_t term,
                            const DeweyId& id, std::vector<uint8_t>* out) {
  out->assign({static_cast<uint8_t>(term >> 24),
               static_cast<uint8_t>(term >> 16),
               static_cast<uint8_t>(term >> 8), static_cast<uint8_t>(term)});
  codec.EncodeTo(id, out);
}

Result<std::unique_ptr<DiskIndex>> DiskIndex::Build(
    const InvertedIndex& src, const std::string& path_prefix,
    const DiskIndexOptions& options) {
  std::unique_ptr<DiskIndex> index(new DiskIndex());

  if (options.in_memory) {
    index->il_store_ = std::make_unique<MemPageStore>();
    index->scan_store_ = std::make_unique<MemPageStore>();
    index->dict_store_ = std::make_unique<MemPageStore>();
  } else {
    XKS_ASSIGN_OR_RETURN(index->il_store_,
                         FilePageStore::Create(path_prefix + ".il"));
    XKS_ASSIGN_OR_RETURN(index->scan_store_,
                         FilePageStore::Create(path_prefix + ".scan"));
    XKS_ASSIGN_OR_RETURN(index->dict_store_,
                         FilePageStore::Create(path_prefix + ".dict"));
  }
  if (options.store_decorator) {
    index->il_store_ =
        options.store_decorator(std::move(index->il_store_), "il");
    index->scan_store_ =
        options.store_decorator(std::move(index->scan_store_), "scan");
    index->dict_store_ =
        options.store_decorator(std::move(index->dict_store_), "dict");
  }

  const LevelTable& table =
      options.compress_dewey ? src.level_table() : LevelTable();
  const DeweyCodec codec(table);
  const std::vector<uint8_t> meta = EncodeIndexMeta(
      table, options.compress_dewey, options.delta_compress,
      src.total_postings(), src.options().tokenizer);

  const std::vector<std::string> terms = src.Terms();

  // Dictionary tree: term -> (id, frequency). Terms are sorted, and ids
  // are assigned in that order, so all three trees load in key order.
  {
    BPlusTreeBuilder builder(index->dict_store_.get());
    for (uint32_t id = 0; id < terms.size(); ++id) {
      const PackedDeweyList* list = src.Find(terms[id]);
      std::vector<uint8_t> value;
      PutVarint32(&value, id);
      PutVarint64(&value, list->size());
      XKS_RETURN_NOT_OK(builder.Add(
          terms[id], std::string_view(reinterpret_cast<const char*>(
                                          value.data()),
                                      value.size())));
    }
    XKS_RETURN_NOT_OK(builder.Finish());
  }

  // Indexed Lookup tree: composite (term, Dewey) keys, empty values.
  {
    BPlusTreeBuilder builder(index->il_store_.get());
    builder.SetMetadata(meta);
    std::string key;
    for (uint32_t id = 0; id < terms.size(); ++id) {
      PackedDeweyList::Decoder postings(src.Find(terms[id]));
      DeweyId node;
      while (postings.Next(&node)) {
        EncodeIlKey(codec, id, node, &key);
        XKS_RETURN_NOT_OK(builder.Add(key, ""));
      }
    }
    XKS_RETURN_NOT_OK(builder.Finish());
  }

  // Scan tree: (term, first Dewey id of the block) -> delta-compressed
  // run of ids. Keying blocks by their first id (rather than a block
  // ordinal) lets the incremental updater locate, split and re-key
  // blocks with ordinary tree operations.
  {
    BPlusTreeBuilder builder(index->scan_store_.get());
    builder.SetMetadata(meta);
    std::string key;
    for (uint32_t id = 0; id < terms.size(); ++id) {
      DeltaBlockEncoder block(options.delta_compress);
      bool have_first = false;
      auto flush = [&]() -> Status {
        if (block.count() == 0) return Status::OK();
        const std::vector<uint8_t> payload = block.Finish();
        have_first = false;
        return builder.Add(
            key, std::string_view(
                     reinterpret_cast<const char*>(payload.data()),
                     payload.size()));
      };
      PackedDeweyList::Decoder postings(src.Find(terms[id]));
      DeweyId node;
      while (postings.Next(&node)) {
        if (!have_first) {
          EncodeIlKey(codec, id, node, &key);
          have_first = true;
        }
        block.Append(node);
        if (block.SizeBytes() >= options.scan_block_bytes) {
          XKS_RETURN_NOT_OK(flush());
        }
      }
      XKS_RETURN_NOT_OK(flush());
    }
    XKS_RETURN_NOT_OK(builder.Finish());
  }

  XKS_RETURN_NOT_OK(index->InitTreesAndDict(options));
  return index;
}

Result<std::unique_ptr<DiskIndex>> DiskIndex::Open(
    const std::string& path_prefix, const DiskIndexOptions& options) {
  if (options.in_memory) {
    return Status::InvalidArgument(
        "an in-memory index cannot be reopened; use Build");
  }
  std::unique_ptr<DiskIndex> index(new DiskIndex());
  XKS_ASSIGN_OR_RETURN(index->il_store_,
                       FilePageStore::Open(path_prefix + ".il"));
  XKS_ASSIGN_OR_RETURN(index->scan_store_,
                       FilePageStore::Open(path_prefix + ".scan"));
  XKS_ASSIGN_OR_RETURN(index->dict_store_,
                       FilePageStore::Open(path_prefix + ".dict"));
  if (options.store_decorator) {
    index->il_store_ =
        options.store_decorator(std::move(index->il_store_), "il");
    index->scan_store_ =
        options.store_decorator(std::move(index->scan_store_), "scan");
    index->dict_store_ =
        options.store_decorator(std::move(index->dict_store_), "dict");
  }
  // Crash recovery: a `.wal` left behind by a crashed updater may hold a
  // committed-but-unapplied batch. Replay it into the freshly opened
  // stores before any tree or dictionary is read, so the index below
  // is always a whole batch boundary — exactly pre- or post-batch.
  if (FileExists(path_prefix + ".wal")) {
    std::unique_ptr<Wal> wal;
    XKS_ASSIGN_OR_RETURN(wal,
                         OpenWalFile(path_prefix, options, /*create=*/false));
    PageStore* const targets[] = {index->il_store_.get(),
                                  index->scan_store_.get(),
                                  index->dict_store_.get()};
    XKS_ASSIGN_OR_RETURN(
        const WalRecoveryStats stats,
        wal->Recover([&targets](uint8_t id) -> PageStore* {
          return id <= kWalStoreDict ? targets[id] : nullptr;
        }));
    RecordRecovery(stats);
  }
  XKS_RETURN_NOT_OK(index->InitTreesAndDict(options));
  return index;
}

Status DiskIndex::InitTreesAndDict(const DiskIndexOptions& options) {
  readahead_pages_ = options.readahead_pages;
  il_pool_ = std::make_unique<BufferPool>(
      il_store_.get(), options.il_pool_pages, options.pool_shards);
  scan_pool_ = std::make_unique<BufferPool>(
      scan_store_.get(), options.scan_pool_pages, options.pool_shards);
  XKS_ASSIGN_OR_RETURN(BPlusTree il_tree, BPlusTree::Open(il_pool_.get()));
  il_tree_ = std::move(il_tree);
  XKS_ASSIGN_OR_RETURN(BPlusTree scan_tree, BPlusTree::Open(scan_pool_.get()));
  scan_tree_ = std::move(scan_tree);

  XKS_ASSIGN_OR_RETURN(IndexMeta meta, DecodeIndexMeta(il_tree_->metadata()));
  codec_.emplace(std::move(meta.table));
  total_postings_ = meta.total_postings;
  tokenizer_ = meta.tokenizer;

  // Load the dictionary (frequency table) into memory, as XKSearch's
  // initializer does. The dictionary file is not touched afterwards.
  BufferPool dict_pool(dict_store_.get(), 64);
  XKS_ASSIGN_OR_RETURN(BPlusTree dict_tree, BPlusTree::Open(&dict_pool));
  BPlusTree::Cursor cursor = dict_tree.NewCursor();
  XKS_RETURN_NOT_OK(cursor.SeekToFirst());
  while (cursor.Valid()) {
    const std::string_view value = cursor.value();
    const uint8_t* data = reinterpret_cast<const uint8_t*>(value.data());
    size_t pos = 0;
    uint32_t id = 0;
    uint64_t freq = 0;
    if (!GetVarint32(data, value.size(), &pos, &id) ||
        !GetVarint64(data, value.size(), &pos, &freq)) {
      return Status::Corruption("bad dictionary entry");
    }
    dict_.emplace(std::string(cursor.key()), TermInfo{id, freq});
    XKS_RETURN_NOT_OK(cursor.Next());
  }
  return Status::OK();
}

const DiskIndex::TermInfo* DiskIndex::FindTerm(std::string_view keyword) const {
  auto it = dict_.find(std::string(keyword));
  return it == dict_.end() ? nullptr : &it->second;
}

Result<bool> DiskIndex::RightMatch(uint32_t term, const DeweyId& v,
                                   DeweyId* out, QueryStats* stats,
                                   IlFinger* finger) const {
  return MatchProbe(term, v, /*left=*/false, out, stats, finger);
}

Result<bool> DiskIndex::LeftMatch(uint32_t term, const DeweyId& v,
                                  DeweyId* out, QueryStats* stats,
                                  IlFinger* finger) const {
  return MatchProbe(term, v, /*left=*/true, out, stats, finger);
}

Result<bool> DiskIndex::MatchProbe(uint32_t term, const DeweyId& v,
                                   bool left, DeweyId* out, QueryStats* stats,
                                   IlFinger* finger) const {
  EncodeIlKey(*codec_, term, v, &finger->key_);
  const std::string_view key(
      reinterpret_cast<const char*>(finger->key_.data()),
      finger->key_.size());

  // From the copy: rm's slot is the first key >= v, lm's the last <= v
  // (one before the first key > v). Either is the global answer when
  // the copy holds an entry on each side of v: 0 < bound < count.
  std::string_view found;
  bool answered = false;
  if (!finger->empty()) {
    const node_format::NodeView leaf(finger->leaf_);
    size_t bound;
    if (!(left ? leaf.UpperBound(key, &bound)
               : leaf.LowerBound(key, &bound))) {
      return Status::Corruption("malformed IL leaf entry");
    }
    if (bound > 0 && bound < finger->count_) {
      std::string_view value;
      if (!leaf.Entry(left ? bound - 1 : bound, &found, &value)) {
        return Status::Corruption("malformed IL leaf entry");
      }
      answered = true;
    }
  }

  // Otherwise descend from the root. The finger is empty until the
  // descent succeeds, then holds the leaf the cursor ended on; the copy
  // is skipped when it already holds that page. The cursor outlives this
  // block because `found` points into its pinned leaf.
  BPlusTree::Cursor cursor = il_tree_->NewCursor();
  if (!answered) {
    const PageId held = finger->leaf_id_;
    finger->leaf_id_ = kInvalidPage;
    cursor.set_stats(stats);
    XKS_RETURN_NOT_OK(left ? cursor.SeekForPrev(key) : cursor.Seek(key));
    if (!cursor.Valid()) return false;
    const node_format::NodeView leaf(cursor.leaf_page());
    if (!leaf.IsLeaf() || leaf.count() > node_format::kMaxSlots) {
      return Status::Corruption("malformed IL leaf header");
    }
    if (cursor.leaf_id() != held) finger->leaf_ = cursor.leaf_page();
    finger->leaf_id_ = cursor.leaf_id();
    finger->count_ = leaf.count();
    found = cursor.key();
  }

  if (!HasTermPrefix(found, term)) return false;
  if (stats != nullptr) ++stats->postings_read;
  const std::string_view rest = found.substr(4);
  XKS_ASSIGN_OR_RETURN(
      *out, codec_->Decode(reinterpret_cast<const uint8_t*>(rest.data()),
                           rest.size()));
  return true;
}

Result<DiskIndex::PostingCursor> DiskIndex::OpenPostings(
    uint32_t term, QueryStats* stats) const {
  BPlusTree::Cursor cursor = scan_tree_->NewCursor();
  cursor.set_stats(stats);
  // Posting scans are the long sequential reads; they are the path that
  // profits from leaf readahead.
  cursor.set_readahead(readahead_pages_);
  // The bare 4-byte term prefix sorts before every (term, dewey) key.
  std::string key;
  AppendBigEndian32(term, &key);
  XKS_RETURN_NOT_OK(cursor.Seek(key));
  PostingCursor pc(this, term, std::move(cursor));
  pc.stats_ = stats;
  return pc;
}

Result<std::vector<DiskIndex::ScanBlockRef>> DiskIndex::ScanBlockRefs(
    uint32_t term, QueryStats* stats) const {
  BPlusTree::Cursor cursor = scan_tree_->NewCursor();
  cursor.set_stats(stats);
  std::string prefix;
  AppendBigEndian32(term, &prefix);
  XKS_RETURN_NOT_OK(cursor.Seek(prefix));
  std::vector<ScanBlockRef> blocks;
  while (cursor.Valid() && HasTermPrefix(cursor.key(), term)) {
    ScanBlockRef ref;
    ref.key.assign(cursor.key());
    const std::string_view rest = cursor.key().substr(4);
    XKS_ASSIGN_OR_RETURN(
        ref.first,
        codec_->Decode(reinterpret_cast<const uint8_t*>(rest.data()),
                       rest.size()));
    blocks.push_back(std::move(ref));
    XKS_RETURN_NOT_OK(cursor.Next());
  }
  return blocks;
}

Result<DiskIndex::PostingCursor> DiskIndex::OpenPostingsAtBlock(
    uint32_t term, std::string_view block_key, uint64_t max_blocks,
    QueryStats* stats) const {
  BPlusTree::Cursor cursor = scan_tree_->NewCursor();
  cursor.set_stats(stats);
  cursor.set_readahead(readahead_pages_);
  XKS_RETURN_NOT_OK(cursor.Seek(block_key));
  PostingCursor pc(this, term, std::move(cursor));
  pc.stats_ = stats;
  pc.blocks_remaining_ = max_blocks;
  return pc;
}

Result<DiskIndex::PostingCursor> DiskIndex::OpenPostingsFrom(
    uint32_t term, const DeweyId& start, DeweyId* prev, bool* prev_valid,
    QueryStats* stats) const {
  *prev_valid = false;
  std::string probe;
  EncodeIlKey(*codec_, term, start, &probe);
  BPlusTree::Cursor cursor = scan_tree_->NewCursor();
  cursor.set_stats(stats);
  cursor.set_readahead(readahead_pages_);
  // Floor search: the hosting block is the last one whose first id is
  // <= start. When no block of this term precedes `start`, the cursor
  // starts at the term's first block with no predecessor to report.
  XKS_RETURN_NOT_OK(cursor.SeekForPrev(probe));
  if (!cursor.Valid() || !HasTermPrefix(cursor.key(), term)) {
    return OpenPostings(term, stats);
  }
  PostingCursor pc(this, term, std::move(cursor));
  pc.stats_ = stats;
  // Skip entries < start, remembering the last one skipped as the
  // predecessor. Positioning decode is deliberately not charged as
  // postings read: the algorithm never consumes these entries. (The
  // uncharged skip is bounded by one block: later blocks start >= start.)
  // The block arrives batch-decoded, so skipping is just advancing the
  // arena position — the first entry >= start stays unconsumed for Next.
  for (;;) {
    if (pc.decoded_pos_ >= pc.decoded_.count()) {
      if (pc.done_ || !pc.LoadBlock()) break;
    }
    const DeweyView v = pc.decoded_.entry(pc.decoded_pos_);
    if (v.Compare(start.view()) >= 0) break;
    prev->AssignFrom(v);
    *prev_valid = true;
    ++pc.decoded_pos_;
  }
  XKS_RETURN_NOT_OK(pc.status_);
  return pc;
}

bool DiskIndex::PostingCursor::LoadBlock() {
  if (!cursor_.Valid() || !HasTermPrefix(cursor_.key(), term_) ||
      blocks_remaining_ == 0) {
    done_ = true;
    return false;
  }
  --blocks_remaining_;
  const std::string_view value = cursor_.value();
  block_.assign(value.begin(), value.end());
  decoded_.Clear();
  decoded_pos_ = 0;
  size_t pos = 0;
  status_ = DecodeBlock(block_.data(), block_.size(), &pos,
                        ~size_t{0}, nullptr, 0, &decoded_);
  if (!status_.ok()) {
    done_ = true;
    return false;
  }
  status_ = cursor_.Next();
  if (!status_.ok()) {
    done_ = true;
    return false;
  }
  return true;
}

bool DiskIndex::PostingCursor::Next(DeweyId* out) {
  for (;;) {
    if (decoded_pos_ < decoded_.count()) {
      out->AssignFrom(decoded_.entry(decoded_pos_++));
      if (stats_ != nullptr) ++stats_->postings_read;
      return true;
    }
    if (done_) return false;
    if (!LoadBlock()) return false;
  }
}

bool DiskIndex::PostingCursor::DecodeBlockInto(DecodedBlock* out) {
  out->Clear();
  for (;;) {
    if (decoded_pos_ < decoded_.count()) {
      if (decoded_pos_ == 0) {
        // Whole block unconsumed: hand the arena over wholesale (the
        // buffers ping-pong between cursor and consumer, both reused).
        std::swap(*out, decoded_);
        decoded_.Clear();
      } else {
        for (size_t i = decoded_pos_; i < decoded_.count(); ++i) {
          out->Append(decoded_.entry(i));
        }
        decoded_pos_ = decoded_.count();
      }
      return true;
    }
    if (done_) return true;  // empty out = end of list (or status_ error)
    if (!LoadBlock()) return true;
  }
}

Status DiskIndex::DropCaches() {
  XKS_RETURN_NOT_OK(il_pool_->DropAll());
  return scan_pool_->DropAll();
}

Status DiskIndex::WarmCaches() {
  XKS_RETURN_NOT_OK(il_pool_->WarmAll());
  return scan_pool_->WarmAll();
}


Result<std::unique_ptr<DiskIndexUpdater>> DiskIndexUpdater::Open(
    const std::string& path_prefix, const DiskIndexOptions& options) {
  if (options.in_memory) {
    return Status::InvalidArgument(
        "the updater maintains file-backed indexes only");
  }
  std::unique_ptr<DiskIndexUpdater> updater(new DiskIndexUpdater());
  updater->options_ = options;
  XKS_ASSIGN_OR_RETURN(updater->il_store_,
                       FilePageStore::Open(path_prefix + ".il"));
  XKS_ASSIGN_OR_RETURN(updater->scan_store_,
                       FilePageStore::Open(path_prefix + ".scan"));
  XKS_ASSIGN_OR_RETURN(updater->dict_store_,
                       FilePageStore::Open(path_prefix + ".dict"));
  if (options.store_decorator) {
    updater->il_store_ =
        options.store_decorator(std::move(updater->il_store_), "il");
    updater->scan_store_ =
        options.store_decorator(std::move(updater->scan_store_), "scan");
    updater->dict_store_ =
        options.store_decorator(std::move(updater->dict_store_), "dict");
  }
  // Replay any committed batch a crashed predecessor left behind, then
  // stack the staging overlays: from here on nothing reaches the inner
  // files until this updater's own batch commits.
  XKS_ASSIGN_OR_RETURN(updater->wal_,
                       OpenWalFile(path_prefix, options, /*create=*/true));
  PageStore* const targets[] = {updater->il_store_.get(),
                                updater->scan_store_.get(),
                                updater->dict_store_.get()};
  XKS_ASSIGN_OR_RETURN(
      const WalRecoveryStats stats,
      updater->wal_->Recover([&targets](uint8_t id) -> PageStore* {
        return id <= kWalStoreDict ? targets[id] : nullptr;
      }));
  RecordRecovery(stats);
  updater->recovered_batches_ = stats.batches_applied;
  updater->il_staged_ =
      std::make_unique<StagedPageStore>(updater->il_store_.get());
  updater->scan_staged_ =
      std::make_unique<StagedPageStore>(updater->scan_store_.get());
  updater->dict_staged_ =
      std::make_unique<StagedPageStore>(updater->dict_store_.get());
  updater->il_pool_ = std::make_unique<BufferPool>(
      updater->il_staged_.get(), options.il_pool_pages);
  updater->scan_pool_ = std::make_unique<BufferPool>(
      updater->scan_staged_.get(), options.scan_pool_pages);
  XKS_ASSIGN_OR_RETURN(BPlusTreeMut il_tree,
                       BPlusTreeMut::Open(updater->il_pool_.get()));
  updater->il_tree_ = std::make_unique<BPlusTreeMut>(std::move(il_tree));
  XKS_ASSIGN_OR_RETURN(BPlusTreeMut scan_tree,
                       BPlusTreeMut::Open(updater->scan_pool_.get()));
  updater->scan_tree_ = std::make_unique<BPlusTreeMut>(std::move(scan_tree));

  XKS_ASSIGN_OR_RETURN(IndexMeta meta,
                       DecodeIndexMeta(updater->il_tree_->metadata()));
  updater->codec_.emplace(std::move(meta.table));
  updater->delta_compress_ = meta.delta_compress;
  updater->compress_dewey_ = meta.compress_dewey;
  updater->tokenizer_ = meta.tokenizer;
  updater->total_postings_ = meta.total_postings;

  // Load the dictionary (already recovered); term ids stay stable, new
  // terms extend it.
  {
    BufferPool dict_pool(updater->dict_store_.get(), 64);
    XKS_ASSIGN_OR_RETURN(BPlusTree dict_tree, BPlusTree::Open(&dict_pool));
    BPlusTree::Cursor cursor = dict_tree.NewCursor();
    XKS_RETURN_NOT_OK(cursor.SeekToFirst());
    while (cursor.Valid()) {
      const std::string_view value = cursor.value();
      const uint8_t* data = reinterpret_cast<const uint8_t*>(value.data());
      size_t pos = 0;
      uint32_t id = 0;
      uint64_t freq = 0;
      if (!GetVarint32(data, value.size(), &pos, &id) ||
          !GetVarint64(data, value.size(), &pos, &freq)) {
        return Status::Corruption("bad dictionary entry");
      }
      updater->dict_.emplace(std::string(cursor.key()),
                             DiskIndex::TermInfo{id, freq});
      updater->next_term_id_ = std::max(updater->next_term_id_, id + 1);
      XKS_RETURN_NOT_OK(cursor.Next());
    }
  }
  return updater;
}

uint64_t DiskIndexUpdater::Frequency(std::string_view keyword) const {
  auto it = dict_.find(std::string(keyword));
  return it == dict_.end() ? 0 : it->second.frequency;
}

Status DiskIndexUpdater::AddPosting(std::string_view keyword,
                                    const DeweyId& id) {
  assert(!finished_);
  if (!codec_->CanEncode(id)) {
    return Status::InvalidArgument(
        "Dewey id " + id.ToString() +
        " exceeds the index's level table; rebuild with a wider table");
  }
  const std::string kw(keyword);
  if (kw.empty()) {
    return Status::InvalidArgument("empty keyword");
  }
  auto [it, inserted] =
      dict_.try_emplace(kw, DiskIndex::TermInfo{next_term_id_, 0});
  if (inserted) ++next_term_id_;
  const uint32_t term = it->second.id;

  std::string key;
  DiskIndex::EncodeIlKey(*codec_, term, id, &key);
  if (il_tree_->Get(key).ok()) {
    return Status::OK();  // posting already present
  }
  XKS_RETURN_NOT_OK(il_tree_->Put(key, ""));
  ++it->second.frequency;
  ++total_postings_;
  return InsertIntoBlock(term, id);
}

Status DiskIndexUpdater::RemovePosting(std::string_view keyword,
                                       const DeweyId& id) {
  assert(!finished_);
  auto it = dict_.find(std::string(keyword));
  if (it == dict_.end()) {
    return Status::NotFound("keyword not in index");
  }
  const uint32_t term = it->second.id;
  std::string key;
  DiskIndex::EncodeIlKey(*codec_, term, id, &key);
  XKS_RETURN_NOT_OK(il_tree_->Delete(key));
  --it->second.frequency;
  --total_postings_;
  if (it->second.frequency == 0) dict_.erase(it);
  return RemoveFromBlock(term, id);
}

Status DiskIndexUpdater::WriteBlock(const std::string& key,
                                    const std::vector<DeweyId>& ids) {
  DeltaBlockEncoder encoder(delta_compress_);
  for (const DeweyId& id : ids) encoder.Append(id);
  const std::vector<uint8_t> payload = encoder.Finish();
  return scan_tree_->Put(
      key, std::string_view(reinterpret_cast<const char*>(payload.data()),
                            payload.size()));
}

Status DiskIndexUpdater::InsertIntoBlock(uint32_t term, const DeweyId& id) {
  std::string probe;
  DiskIndex::EncodeIlKey(*codec_, term, id, &probe);

  // The hosting block is the last one whose first id <= the new id; if
  // the id precedes every block, it joins the term's first block.
  std::string block_key, payload;
  XKS_ASSIGN_OR_RETURN(bool found,
                       scan_tree_->FindFloor(probe, &block_key, &payload));
  if (!found || !HasTermPrefix(block_key, term)) {
    std::string prefix;
    AppendBigEndian32(term, &prefix);
    XKS_ASSIGN_OR_RETURN(found,
                         scan_tree_->FindCeil(prefix, &block_key, &payload));
    if (!found || !HasTermPrefix(block_key, term)) {
      // First posting of this term.
      return WriteBlock(probe, {id});
    }
  }

  std::vector<DeweyId> ids;
  DeltaBlockDecoder decoder(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  DeweyId decoded;
  while (decoder.Next(&decoded)) ids.push_back(decoded);
  XKS_RETURN_NOT_OK(decoder.status());

  const auto pos = std::lower_bound(ids.begin(), ids.end(), id);
  if (pos != ids.end() && *pos == id) return Status::OK();
  const bool new_head = pos == ids.begin();
  ids.insert(pos, id);

  if (new_head) {
    // The block's key is its first id; re-key it.
    XKS_RETURN_NOT_OK(scan_tree_->Delete(block_key));
    block_key = probe;
  }

  // Estimate the encoded size; split the block once it outgrows the
  // budget so no block ever threatens the page-entry limit.
  DeltaBlockEncoder probe_encoder(delta_compress_);
  for (const DeweyId& v : ids) probe_encoder.Append(v);
  if (probe_encoder.SizeBytes() <= options_.scan_block_bytes) {
    return WriteBlock(block_key, ids);
  }
  const size_t mid = ids.size() / 2;
  const std::vector<DeweyId> left(ids.begin(), ids.begin() + mid);
  const std::vector<DeweyId> right(ids.begin() + mid, ids.end());
  XKS_RETURN_NOT_OK(WriteBlock(block_key, left));
  std::string right_key;
  DiskIndex::EncodeIlKey(*codec_, term, right.front(), &right_key);
  return WriteBlock(right_key, right);
}

Status DiskIndexUpdater::RemoveFromBlock(uint32_t term, const DeweyId& id) {
  std::string probe;
  DiskIndex::EncodeIlKey(*codec_, term, id, &probe);
  std::string block_key, payload;
  XKS_ASSIGN_OR_RETURN(bool found,
                       scan_tree_->FindFloor(probe, &block_key, &payload));
  if (!found || !HasTermPrefix(block_key, term)) {
    return Status::Corruption("posting missing from scan layout");
  }
  std::vector<DeweyId> ids;
  DeltaBlockDecoder decoder(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  DeweyId decoded;
  while (decoder.Next(&decoded)) ids.push_back(decoded);
  XKS_RETURN_NOT_OK(decoder.status());

  const auto pos = std::lower_bound(ids.begin(), ids.end(), id);
  if (pos == ids.end() || *pos != id) {
    return Status::Corruption("posting missing from scan block");
  }
  const bool was_head = pos == ids.begin();
  ids.erase(pos);
  if (ids.empty()) {
    return scan_tree_->Delete(block_key);
  }
  if (was_head) {
    XKS_RETURN_NOT_OK(scan_tree_->Delete(block_key));
    DiskIndex::EncodeIlKey(*codec_, term, ids.front(), &block_key);
  }
  return WriteBlock(block_key, ids);
}

Status DiskIndexUpdater::Finish() {
  assert(!finished_);
  finished_ = true;

  const LevelTable& table = codec_->level_table();
  const std::vector<uint8_t> meta = EncodeIndexMeta(
      table, compress_dewey_, delta_compress_, total_postings_, tokenizer_);
  il_tree_->SetMetadata(meta);
  scan_tree_->SetMetadata(meta);
  XKS_RETURN_NOT_OK(il_tree_->Flush());
  XKS_RETURN_NOT_OK(scan_tree_->Flush());

  // Rewrite the dictionary from scratch (it is small and the bulk
  // builder wants sorted keys anyway).
  std::vector<std::string> terms;
  terms.reserve(dict_.size());
  for (const auto& [term, info] : dict_) terms.push_back(term);
  std::sort(terms.begin(), terms.end());
  // The rebuild goes through the dict overlay (emptied first — the bulk
  // builder wants a fresh store), so like the tree flushes above it is
  // part of the staged batch, not an in-place file rewrite.
  XKS_RETURN_NOT_OK(dict_staged_->Truncate(0));
  BPlusTreeBuilder builder(dict_staged_.get());
  for (const std::string& term : terms) {
    const DiskIndex::TermInfo& info = dict_.at(term);
    std::vector<uint8_t> value;
    PutVarint32(&value, info.id);
    PutVarint64(&value, info.frequency);
    XKS_RETURN_NOT_OK(builder.Add(
        term, std::string_view(reinterpret_cast<const char*>(value.data()),
                               value.size())));
  }
  XKS_RETURN_NOT_OK(builder.Finish());
  return CommitBatch();
}

Status DiskIndexUpdater::CommitBatch() {
  XKS_RETURN_NOT_OK(wal_->AppendBegin(total_postings_));
  const struct {
    uint8_t id;
    StagedPageStore* staged;
  } stores[] = {{kWalStoreIl, il_staged_.get()},
                {kWalStoreScan, scan_staged_.get()},
                {kWalStoreDict, dict_staged_.get()}};
  for (const auto& entry : stores) {
    XKS_RETURN_NOT_OK(wal_->AppendTruncate(entry.id,
                                           entry.staged->page_count()));
    for (const PageId page : entry.staged->StagedPageIds()) {
      XKS_RETURN_NOT_OK(wal_->AppendPageImage(entry.id, page,
                                              *entry.staged->StagedPage(page)));
    }
  }
  // The single durability barrier: after this fsync the batch survives
  // any crash; before it, a crash leaves the inner files untouched.
  XKS_RETURN_NOT_OK(wal_->Commit());
  // Apply by replaying the log into the real files — the exact code path
  // crash recovery takes, so every successful Finish exercises it.
  PageStore* const targets[] = {il_staged_->inner(), scan_staged_->inner(),
                                dict_staged_->inner()};
  XKS_ASSIGN_OR_RETURN(const WalRecoveryStats stats,
                       wal_->Recover([&targets](uint8_t id) -> PageStore* {
                         return id <= kWalStoreDict ? targets[id] : nullptr;
                       }));
  if (stats.batches_applied != 1) {
    return Status::Internal("batch apply replayed " +
                            std::to_string(stats.batches_applied) +
                            " batches, expected exactly 1");
  }
  return Status::OK();
}

}  // namespace xksearch
