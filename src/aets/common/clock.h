#ifndef AETS_COMMON_CLOCK_H_
#define AETS_COMMON_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace aets {

/// Logical timestamps used for commit ordering and snapshot reads. The
/// primary's commit sequence and OLAP query snapshots are both drawn from one
/// `LogicalClock`, playing the role of the timestamp oracle the paper assumes
/// ("gets the latest snapshot timestamp value from the primary", Section V-B).
using Timestamp = uint64_t;

constexpr Timestamp kInvalidTimestamp = 0;

/// Monotonically increasing logical clock. Thread-safe.
class LogicalClock {
 public:
  LogicalClock() : next_(1) {}
  explicit LogicalClock(Timestamp start) : next_(start) {}

  LogicalClock(const LogicalClock&) = delete;
  LogicalClock& operator=(const LogicalClock&) = delete;

  /// Returns a fresh, unique timestamp (strictly increasing across calls).
  Timestamp Tick() { return next_.fetch_add(1, std::memory_order_relaxed); }

  /// The most recently issued timestamp, or 0 if none was issued yet.
  Timestamp Now() const { return next_.load(std::memory_order_relaxed) - 1; }

  /// Advances the clock so the next Tick() returns at least `ts + 1`.
  void AdvanceTo(Timestamp ts) {
    Timestamp cur = next_.load(std::memory_order_relaxed);
    while (cur <= ts &&
           !next_.compare_exchange_weak(cur, ts + 1, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<Timestamp> next_;
};

/// Monotone atomic-max publication of a watermark: advances `slot` to `ts`
/// unless it is already past it. The canonical way every replayer publishes
/// tg_cmt_ts / global_cmt_ts — a plain store could move a watermark backwards
/// when an epoch's own commits race a heartbeat or a sub-epoch's
/// max-commit-ts advance (see LogShipper's sharded split).
inline void StoreMaxTimestamp(std::atomic<Timestamp>& slot, Timestamp ts) {
  Timestamp cur = slot.load(std::memory_order_relaxed);
  while (cur < ts &&
         !slot.compare_exchange_weak(cur, ts, std::memory_order_release)) {
  }
}

/// Wall-clock helpers (steady clock) used for measuring visibility delay and
/// phase breakdowns.
inline int64_t MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline int64_t MonotonicMicros() { return MonotonicNanos() / 1000; }

/// Scoped stopwatch accumulating elapsed nanoseconds into a counter.
class ScopedTimerNs {
 public:
  explicit ScopedTimerNs(std::atomic<int64_t>* sink)
      : sink_(sink), start_(MonotonicNanos()) {}
  ~ScopedTimerNs() {
    sink_->fetch_add(MonotonicNanos() - start_, std::memory_order_relaxed);
  }

  ScopedTimerNs(const ScopedTimerNs&) = delete;
  ScopedTimerNs& operator=(const ScopedTimerNs&) = delete;

 private:
  std::atomic<int64_t>* sink_;
  int64_t start_;
};

}  // namespace aets

#endif  // AETS_COMMON_CLOCK_H_
