// Shared pieces of the serving benchmark: clocks and order statistics,
// the span recorder behind the traced run, and the timing PageStore
// installed through DiskIndexOptions::store_decorator.
#ifndef XKS_PERFBENCH_COMMON_H_
#define XKS_PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/pager.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
inline double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Aborts the run with a message when a library call fails: setup and
/// update steps have no useful failure mode in a benchmark.
void CheckOk(const xksearch::Status& status, const char* what);

/// \brief In-memory span log for the traced run.
///
/// A span is one timed call the benchmark makes into a module (request,
/// engine search, PrepareQuery, ComputeSlca, page I/O). Spans of one
/// request share `request`; `parent` is the enclosing span, which gives
/// self time. Spans stay in memory and are written out once, when the
/// run ends. A disabled tracer records nothing and costs one branch.
class Tracer {
 public:
  struct Span {
    const char* name;
    uint64_t id;
    uint64_t parent;
    uint64_t request;
    int64_t start_ns;
    int64_t end_ns;
  };

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const Span& span);

  /// The request the one in-flight served query belongs to, for spans
  /// recorded on service worker threads (page I/O). Only meaningful
  /// while a single client drives the service; 0 otherwise.
  std::atomic<uint64_t> served_request{0};

  /// Self time per span name, microseconds: duration minus the time its
  /// child spans cover.
  std::vector<double> SelfMicros(std::string_view name) const;
  std::vector<double> DurationMicros(std::string_view name) const;
  size_t size() const;

  /// Writes all spans as CSV (name,id,parent,request,start_ns,end_ns).
  bool WriteCsv(const std::string& path) const;

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// \brief RAII span on the calling thread; nests through a thread-local
/// parent stack, so spans opened inside it become its children.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  /// The innermost open span on this thread (0 when none).
  static uint64_t Current();
  static uint64_t CurrentRequest();

 private:
  Tracer* tracer_;
  Tracer::Span span_{};
  uint64_t saved_parent_ = 0;
  uint64_t saved_request_ = 0;
};

/// \brief Per-store I/O tallies gathered by TimingStore.
struct IoCounters {
  std::atomic<uint64_t> read_calls{0};
  std::atomic<uint64_t> pages_read{0};
  std::atomic<uint64_t> read_ns{0};
  std::atomic<uint64_t> pages_written{0};
  std::atomic<uint64_t> syncs{0};
};

/// \brief The stores one index touches, by the decorator's store name.
struct IoStats {
  IoCounters il, scan, dict, wal;
  Tracer* tracer = nullptr;

  IoCounters& For(std::string_view name);
  uint64_t Sum(std::atomic<uint64_t> IoCounters::*field) const;
  void Reset();
};

/// \brief PageStore decorator that times reads and counts writes and
/// fsyncs, forwarding every call unchanged. Installed through the
/// public DiskIndexOptions::store_decorator hook.
class TimingStore : public xksearch::PageStore {
 public:
  TimingStore(std::unique_ptr<xksearch::PageStore> inner, IoCounters* counters,
              Tracer* tracer)
      : inner_(std::move(inner)), counters_(counters), tracer_(tracer) {}

  xksearch::Status ReadPage(xksearch::PageId id,
                            xksearch::Page* out) override;
  xksearch::Status ReadPages(const xksearch::PageId* ids, size_t count,
                             xksearch::Page* const* pages) override;
  xksearch::Status WritePage(xksearch::PageId id,
                             const xksearch::Page& page) override;
  xksearch::Result<xksearch::PageId> AllocatePage() override {
    return inner_->AllocatePage();
  }
  xksearch::PageId page_count() const override { return inner_->page_count(); }
  xksearch::Status Sync() override;
  xksearch::Status Truncate(xksearch::PageId page_count) override {
    return inner_->Truncate(page_count);
  }
  void Prefetch(xksearch::PageId first, size_t count) override {
    inner_->Prefetch(first, count);
  }

 private:
  void Account(size_t pages, int64_t start_ns, int64_t end_ns);

  std::unique_ptr<xksearch::PageStore> inner_;
  IoCounters* counters_;
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // XKS_PERFBENCH_COMMON_H_
