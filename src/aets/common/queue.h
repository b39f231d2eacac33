#ifndef AETS_COMMON_QUEUE_H_
#define AETS_COMMON_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace aets {

/// Bounded multi-producer/multi-consumer blocking queue.
///
/// `Close()` wakes all waiters; after close, `Push` fails and `Pop` drains the
/// remaining elements then returns nullopt. Used for the replication channel
/// and for per-group replay task queues.
template <typename T>
class BlockingQueue {
 public:
  explicit BlockingQueue(size_t capacity = 0) : capacity_(capacity) {}

  BlockingQueue(const BlockingQueue&) = delete;
  BlockingQueue& operator=(const BlockingQueue&) = delete;

  /// Blocks while full. Returns false if the queue was closed.
  bool Push(T item) {
    std::unique_lock<std::mutex> lk(mu_);
    not_full_.wait(lk, [&] {
      return closed_ || capacity_ == 0 || queue_.size() < capacity_;
    });
    if (closed_) return false;
    queue_.push_back(std::move(item));
    lk.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; returns false when full or closed.
  bool TryPush(T item) {
    std::unique_lock<std::mutex> lk(mu_);
    if (closed_ || (capacity_ != 0 && queue_.size() >= capacity_)) return false;
    queue_.push_back(std::move(item));
    lk.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty. Returns nullopt once closed and drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lk(mu_);
    not_empty_.wait(lk, [&] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return std::nullopt;
    T item = std::move(queue_.front());
    queue_.pop_front();
    lk.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Blocks until an element is available or `deadline` passes; nullopt on
  /// timeout (a past deadline makes this a non-blocking pop). Close() does
  /// not cut the wait short: on a closed queue the call is a bounded pause,
  /// which is what a caller backing off between retries wants.
  std::optional<T> PopUntil(std::chrono::steady_clock::time_point deadline) {
    std::unique_lock<std::mutex> lk(mu_);
    if (!not_empty_.wait_until(lk, deadline, [&] { return !queue_.empty(); })) {
      return std::nullopt;
    }
    T item = std::move(queue_.front());
    queue_.pop_front();
    lk.unlock();
    not_full_.notify_one();
    return item;
  }

  void Close() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t Size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> queue_;
  size_t capacity_;  // 0 = unbounded
  bool closed_ = false;
};

}  // namespace aets

#endif  // AETS_COMMON_QUEUE_H_
