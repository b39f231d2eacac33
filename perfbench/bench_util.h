// Measurement primitives of the HTAP benchmark: exact percentiles over raw
// samples, the commit-to-visible lag matcher, in-memory spans with per-layer
// self time, and process resource readings. Kept apart from htap_bench.cc so
// selftest.cc can check the arithmetic on synthetic traces.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// p-th percentile (p in [0, 100]) of `v`, interpolating linearly between
/// closest ranks (numpy's default). NaN for an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

/// Samples strictly above the p-th percentile: a p99 is reported only when
/// at least ten samples lie beyond it.
inline size_t TailCount(const std::vector<double>& v, double p) {
  double cut = Percentile(v, p);
  return static_cast<size_t>(
      std::count_if(v.begin(), v.end(), [&](double x) { return x > cut; }));
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

/// Latency samples with the time each was taken. A tail percentile is
/// reported as the median over consecutive windows of the per-window
/// percentile: a rare stall of the shared machine then moves one window, not
/// the reported figure.
class Series {
 public:
  void Add(int64_t at_ns, double value) { samples_.push_back({at_ns, value}); }
  void Append(const Series& other) {
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  }
  size_t size() const { return samples_.size(); }
  std::vector<double> values() const {
    std::vector<double> v;
    v.reserve(samples_.size());
    for (const auto& s : samples_) v.push_back(s.second);
    return v;
  }

  /// Orders the samples by time, cuts them into at most `max_windows`
  /// windows of equal count holding at least `min_samples` each (one window
  /// when there are fewer), and returns the median of the windows' p-th
  /// percentiles. NaN for an empty series.
  double WindowedPercentile(double p, size_t min_samples,
                            size_t max_windows = 10) const {
    std::vector<std::pair<int64_t, double>> sorted = samples_;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    size_t windows = std::max<size_t>(
        1, std::min(max_windows, sorted.size() / std::max<size_t>(min_samples, 1)));
    std::vector<double> per_window;
    for (size_t w = 0; w < windows; ++w) {
      size_t lo = sorted.size() * w / windows, hi = sorted.size() * (w + 1) / windows;
      std::vector<double> bucket;
      for (size_t i = lo; i < hi; ++i) bucket.push_back(sorted[i].second);
      if (!bucket.empty()) per_window.push_back(Percentile(std::move(bucket), p));
    }
    return Median(per_window);
  }

 private:
  std::vector<std::pair<int64_t, double>> samples_;
};

/// Append-only log of primary commits in commit order, written by one
/// generator thread and read concurrently by the lag observer. Capacity is
/// fixed up front so readers never see a reallocation.
class CommitLog {
 public:
  struct Record {
    uint64_t commit_ts;
    int64_t return_ns;  // when the commit call returned to the client
  };

  explicit CommitLog(size_t capacity) : records_(capacity) {}

  /// False when full; the caller stops generating.
  bool Append(uint64_t commit_ts, int64_t return_ns) {
    size_t n = size_.load(std::memory_order_relaxed);
    if (n == records_.size()) return false;
    records_[n] = Record{commit_ts, return_ns};
    size_.store(n + 1, std::memory_order_release);
    return true;
  }
  size_t size() const { return size_.load(std::memory_order_acquire); }
  const Record& at(size_t i) const { return records_[i]; }

 private:
  std::vector<Record> records_;
  std::atomic<size_t> size_{0};
};

/// Turns polled watermark readings into per-commit lags: every commit whose
/// commit_ts the watermark covers at poll time `now_ns` gets lag
/// now_ns - return_ns. Commit timestamps rise along the log, so one cursor
/// suffices. The lag overstates the truth by at most one poll interval.
///
/// A poll reads, in this order, the log size `n`, the watermark, then
/// `now_ns`: every considered commit returned before `now_ns`, and the
/// watermark already covered it at `now_ns`.
class LagMatcher {
 public:
  /// Matches commits [cursor, n); returns how many were newly matched.
  size_t Advance(const CommitLog& log, size_t n, uint64_t watermark,
                 int64_t now_ns, std::vector<double>* lags_us) {
    size_t matched = 0;
    while (cursor_ < n && log.at(cursor_).commit_ts <= watermark) {
      lags_us->push_back(
          static_cast<double>(now_ns - log.at(cursor_).return_ns) / 1e3);
      ++cursor_;
      ++matched;
    }
    return matched;
  }
  size_t cursor() const { return cursor_; }

 private:
  size_t cursor_ = 0;
};

/// Layers the benchmark times from its own side of each public call.
enum class SpanKind : uint8_t {
  kTxn,    // Workload::RunOltpTransaction (primary)
  kSink,   // LogShipper::OnCommit from the commit sink (replication)
  kSeal,   // an OnCommit call that sealed and shipped an epoch
  kWait,   // WaitVisible (replay visibility)
  kExec,   // the query's answering work (query_exec / storage reads)
  kScan,   // QueryClient::Scan (net)
};

inline const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTxn: return "primary.txn";
    case SpanKind::kSink: return "replication.sink";
    case SpanKind::kSeal: return "replication.seal";
    case SpanKind::kWait: return "replay.wait_visible";
    case SpanKind::kExec: return "query.exec";
    case SpanKind::kScan: return "net.scan";
  }
  return "?";
}

struct Span {
  int64_t start_ns;
  int64_t end_ns;
  uint64_t id;  // txn sequence number, commit_ts or query id
  uint32_t thread;
  SpanKind kind;
};

/// Self time of every span: its duration minus the part of it that spans
/// nested inside it on the same thread cover. `spans` must come from one
/// thread; it is sorted by start (outer first on ties).
inline std::vector<int64_t> SelfTimesNs(std::vector<Span>* spans) {
  std::sort(spans->begin(), spans->end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                    : a.end_ns > b.end_ns;
  });
  std::vector<int64_t> self(spans->size());
  std::vector<size_t> stack;
  for (size_t i = 0; i < spans->size(); ++i) {
    const Span& s = (*spans)[i];
    while (!stack.empty() && (*spans)[stack.back()].end_ns <= s.start_ns) {
      stack.pop_back();
    }
    self[i] = s.end_ns - s.start_ns;
    if (!stack.empty()) self[stack.back()] -= s.end_ns - s.start_ns;
    stack.push_back(i);
  }
  return self;
}

/// In-memory span recorder. Disabled, Record costs one relaxed load. Each
/// thread appends to its own buffer; buffers are merged after the threads
/// that wrote them have joined.
class Tracer {
 public:
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(SpanKind kind, uint64_t id, int64_t start_ns, int64_t end_ns) {
    if (!enabled()) return;
    Buffer()->push_back(Span{start_ns, end_ns, id, ThreadIndex(), kind});
  }

  /// All spans recorded so far, grouped by thread. Call once writers joined.
  std::vector<std::vector<Span>> TakeAll() {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<std::vector<Span>> out;
    for (auto& buf : buffers_) out.push_back(std::move(*buf));
    buffers_.clear();
    ++generation_;
    return out;
  }

 private:
  std::vector<Span>* Buffer() {
    thread_local std::vector<Span>* buf = nullptr;
    thread_local uint64_t gen = ~uint64_t{0};
    thread_local const Tracer* owner = nullptr;
    if (buf == nullptr || owner != this ||
        gen != generation_.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lk(mu_);
      buffers_.push_back(std::make_unique<std::vector<Span>>());
      buf = buffers_.back().get();
      gen = generation_.load(std::memory_order_relaxed);
      owner = this;
    }
    return buf;
  }
  static uint32_t ThreadIndex() {
    static std::atomic<uint32_t> next{0};
    thread_local uint32_t index = next.fetch_add(1);
    return index;
  }

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> generation_{0};
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// Times a public call into one layer when tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind, uint64_t id)
      : tracer_(tracer->enabled() ? tracer : nullptr),
        kind_(kind),
        id_(id),
        start_(tracer_ ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->Record(kind_, id_, start_, NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  SpanKind kind_;
  uint64_t id_;
  int64_t start_;
};

/// Process CPU time (user + system), milliseconds.
inline double CpuMillis() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

/// Peak resident set of the process so far, MiB.
inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Current resident set, KiB (from /proc/self/statm).
inline double CurrentRssKb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long size = 0, resident = 0;
  int got = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

/// Least-squares slope of y on x; 0 with fewer than two distinct x.
inline double Slope(const std::vector<double>& x, const std::vector<double>& y) {
  size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0;
  double mx = 0, my = 0;
  for (size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0;
  for (size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
  }
  return sxx > 0 ? sxy / sxx : 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
