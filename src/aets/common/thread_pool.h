#ifndef AETS_COMMON_THREAD_POOL_H_
#define AETS_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace aets {

/// Fixed-size worker pool with an unbounded task queue and a barrier-style
/// `WaitIdle()`. Replay stages submit a batch of tasks and wait for the stage
/// to drain. The queue needs no bound: every caller submits at most a few
/// tasks per worker per epoch, and the replayer's pipeline queue is what
/// throttles the prepare stage.
///
/// Shutdown semantics: `Shutdown()` (also run by the destructor) drains tasks
/// already accepted, then stops the workers. A `Submit` that races with or
/// follows shutdown is a documented no-op that returns false — the task is
/// never silently enqueued into a dying pool.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Returns false (task dropped, never run) once the pool
  /// is shut down.
  bool Submit(std::function<void()> task);

  /// Blocks until every accepted task has finished executing.
  void WaitIdle();

  /// Drains accepted tasks, joins the workers, and rejects all future
  /// submits. Idempotent; the destructor calls it too.
  void Shutdown();

  int num_threads() const { return static_cast<int>(threads_.size()); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> tasks_;
  int in_flight_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace aets

#endif  // AETS_COMMON_THREAD_POOL_H_
