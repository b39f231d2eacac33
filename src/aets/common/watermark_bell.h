#ifndef AETS_COMMON_WATERMARK_BELL_H_
#define AETS_COMMON_WATERMARK_BELL_H_

#include <atomic>
#include <cstdint>

namespace aets {

/// Wake-up signal for threads waiting on a visibility watermark (the
/// Algorithm-3 wait). Publishers Ring() right after each watermark store;
/// a waiter reads Sequence(), re-checks its condition, and parks in
/// Wait(seen) on the sequence futex until a ring moves it:
///
///   for (;;) {
///     uint32_t seen = bell.Sequence();
///     if (condition()) break;
///     bell.Wait(seen);
///   }
///
/// No wake-up is lost: a ring that lands after Sequence() changes the
/// sequence, so Wait returns at once; one that lands before it is ordered
/// before the condition re-check (the watermark store happens-before the
/// ring's increment, which the Sequence() acquire-load observes). Ring()
/// skips the notify syscall while nobody waits, keeping the publish path a
/// single atomic increment on an idle backup.
class WatermarkBell {
 public:
  uint32_t Sequence() const { return seq_.load(std::memory_order_acquire); }

  void Ring() {
    // Both seq_cst: if this load misses a waiter's registration, the
    // waiter's later sequence check is ordered after the increment.
    seq_.fetch_add(1, std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_seq_cst) != 0) seq_.notify_all();
  }

  /// Blocks until the sequence differs from `seen`.
  void Wait(uint32_t seen) {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    seq_.wait(seen, std::memory_order_seq_cst);
    waiters_.fetch_sub(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint32_t> seq_{0};
  std::atomic<uint32_t> waiters_{0};
};

}  // namespace aets

#endif  // AETS_COMMON_WATERMARK_BELL_H_
