#ifndef AETS_COMMON_BACKOFF_H_
#define AETS_COMMON_BACKOFF_H_

#include <chrono>
#include <cstdint>
#include <thread>

namespace aets {

/// Spin-then-yield-then-sleep backoff for the replay-path busy waits. The
/// waiter burns `spins_per_yield` iterations on the core first (the common
/// case: the producer is one cache miss away), then yields the core, and
/// after `yields_before_sleep` yields starts sleeping `sleep_us` at a time.
/// Yielding instead of a futex park keeps the producer hot path free of any
/// waker-signalling cost — the waiter wakes to find a batch of work ready.
/// That trade only pays for replay-internal waits, whose producer is
/// microseconds away; a real-time query waiting on a visibility watermark
/// parks on the replayer's WatermarkBell instead, so it leaves the cores to
/// replay.
///
/// Pass a negative `yields_before_sleep` to never escalate past yielding
/// (ATR's operation-sequence check: the dependency is always an earlier
/// in-flight operation, microseconds away).
class SpinBackoff {
 public:
  explicit SpinBackoff(int spins_per_yield = 64, int yields_before_sleep = 256,
                       int64_t sleep_us = 20)
      : spins_per_yield_(spins_per_yield),
        yields_before_sleep_(yields_before_sleep),
        sleep_us_(sleep_us) {}

  /// One backoff step; call in the body of the wait loop.
  void Pause() {
    waited_ = true;
    if (++spins_ <= spins_per_yield_) return;
    spins_ = 0;
    if (yields_before_sleep_ >= 0 && ++yields_ > yields_before_sleep_) {
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us_));
    } else {
      std::this_thread::yield();
    }
  }

  /// True once Pause() has run at least once (the wait wasn't free).
  bool waited() const { return waited_; }

 private:
  int spins_per_yield_;
  int yields_before_sleep_;
  int64_t sleep_us_;
  int spins_ = 0;
  int yields_ = 0;
  bool waited_ = false;
};

}  // namespace aets

#endif  // AETS_COMMON_BACKOFF_H_
