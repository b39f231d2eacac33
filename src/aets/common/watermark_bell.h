#ifndef AETS_COMMON_WATERMARK_BELL_H_
#define AETS_COMMON_WATERMARK_BELL_H_

#include <atomic>
#include <cstdint>

namespace aets {

/// The replay path's one wait primitive. A producer makes a condition true
/// and then calls Ring(); a waiter calls WaitUntil(ready) and parks on a
/// futex sequence until a ring lets `ready` hold. A replayer owns two bells:
/// the visibility bell, rung after each watermark store (the Algorithm-3
/// query wait), and the work bell, rung after each flag or counter a
/// replay-internal wait reads.
///
/// No wake-up is lost. The waiter registers and issues a seq_cst fence
/// before its first parked check; Ring() issues one between the producer's
/// store and its load of the waiter count. One fence precedes the other, so
/// either the ring sees the waiter and bumps the sequence (which the futex
/// wait then observes), or the waiter's check sees the store. A ring with
/// nobody waiting is a fence and a load: it writes no shared cache line.
class WatermarkBell {
 public:
  void Ring() {
    if (!HasWaiters()) return;
    seq_.fetch_add(1, std::memory_order_release);
    seq_.notify_all();
  }

  /// Returns once `ready()` is true. `ready` may only read state whose
  /// producers ring this bell after each change.
  template <typename Ready>
  void WaitUntil(Ready&& ready) {
    if (ready()) return;
    Register();
    for (;;) {
      uint32_t seen = seq_.load(std::memory_order_acquire);
      if (ready()) break;
      seq_.wait(seen, std::memory_order_acquire);
    }
    waiters_.fetch_sub(1, std::memory_order_relaxed);
  }

 private:
#if defined(__SANITIZE_THREAD__)
  // ThreadSanitizer does not model standalone fences; seq_cst
  // read-modify-writes on the waiter count give it the same order.
  bool HasWaiters() { return waiters_.fetch_add(0) != 0; }
  void Register() { waiters_.fetch_add(1); }
#else
  bool HasWaiters() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return waiters_.load(std::memory_order_relaxed) != 0;
  }
  void Register() {
    waiters_.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }
#endif

  std::atomic<uint32_t> seq_{0};
  std::atomic<uint32_t> waiters_{0};
};

}  // namespace aets

#endif  // AETS_COMMON_WATERMARK_BELL_H_
