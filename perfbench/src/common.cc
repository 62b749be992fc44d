#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

void CheckOk(const xksearch::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 status.ToString().c_str());
    std::exit(3);
  }
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<double> Tracer::DurationMicros(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back((s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

std::vector<double> Tracer::SelfMicros(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    int64_t self = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    if (it != child_ns.end()) self -= it->second;
    out.push_back(static_cast<double>(std::max<int64_t>(self, 0)) / 1e3);
  }
  return out;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,id,parent,request,start_ns,end_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%llu,%llu,%llu,%lld,%lld\n", s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

namespace {
thread_local uint64_t tls_parent = 0;
thread_local uint64_t tls_request = 0;
}  // namespace

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t request)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->NewId();
  span_.parent = tls_parent;
  span_.request =
      request != 0 ? request : (tls_request != 0 ? tls_request : span_.id);
  saved_parent_ = tls_parent;
  saved_request_ = tls_request;
  tls_parent = span_.id;
  tls_request = span_.request;
  span_.start_ns = Tracer::NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = Tracer::NowNs();
  tls_parent = saved_parent_;
  tls_request = saved_request_;
  tracer_->Record(span_);
}

uint64_t ScopedSpan::Current() { return tls_parent; }
uint64_t ScopedSpan::CurrentRequest() { return tls_request; }

IoCounters& IoStats::For(std::string_view name) {
  if (name == "il") return il;
  if (name == "scan") return scan;
  if (name == "dict") return dict;
  return wal;
}

uint64_t IoStats::Sum(std::atomic<uint64_t> IoCounters::*field) const {
  return (il.*field).load() + (scan.*field).load() + (dict.*field).load() +
         (wal.*field).load();
}

void IoStats::Reset() {
  for (IoCounters* c : {&il, &scan, &dict, &wal}) {
    c->read_calls = 0;
    c->pages_read = 0;
    c->read_ns = 0;
    c->pages_written = 0;
    c->syncs = 0;
  }
}

void TimingStore::Account(size_t pages, int64_t start_ns, int64_t end_ns) {
  counters_->read_calls.fetch_add(1, std::memory_order_relaxed);
  counters_->pages_read.fetch_add(pages, std::memory_order_relaxed);
  counters_->read_ns.fetch_add(static_cast<uint64_t>(end_ns - start_ns),
                               std::memory_order_relaxed);
  if (tracer_ != nullptr && tracer_->enabled()) {
    // Reads on the benchmark's own thread nest under its open span;
    // reads on a service worker belong to the one in-flight request.
    uint64_t parent = ScopedSpan::Current();
    uint64_t request = ScopedSpan::CurrentRequest();
    if (parent == 0) {
      request = tracer_->served_request.load(std::memory_order_relaxed);
      parent = request;
    }
    tracer_->Record({"page_io", tracer_->NewId(), parent, request, start_ns,
                     end_ns});
  }
}

xksearch::Status TimingStore::ReadPage(xksearch::PageId id,
                                       xksearch::Page* out) {
  const int64_t start = Tracer::NowNs();
  xksearch::Status status = inner_->ReadPage(id, out);
  Account(1, start, Tracer::NowNs());
  return status;
}

xksearch::Status TimingStore::ReadPages(const xksearch::PageId* ids,
                                        size_t count,
                                        xksearch::Page* const* pages) {
  const int64_t start = Tracer::NowNs();
  xksearch::Status status = inner_->ReadPages(ids, count, pages);
  Account(count, start, Tracer::NowNs());
  return status;
}

xksearch::Status TimingStore::WritePage(xksearch::PageId id,
                                        const xksearch::Page& page) {
  counters_->pages_written.fetch_add(1, std::memory_order_relaxed);
  return inner_->WritePage(id, page);
}

xksearch::Status TimingStore::Sync() {
  counters_->syncs.fetch_add(1, std::memory_order_relaxed);
  return inner_->Sync();
}

}  // namespace perfbench
