#include "aets/common/thread_pool.h"

#include "aets/common/macros.h"

namespace aets {

ThreadPool::ThreadPool(int num_threads) {
  AETS_CHECK(num_threads > 0);
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  task_ready_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

bool ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (shutdown_) return false;
    tasks_.push_back(std::move(task));
  }
  task_ready_.notify_one();
  return true;
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_.wait(lk, [&] { return tasks_.empty() && in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      task_ready_.wait(lk, [&] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutdown with drained queue
      task = std::move(tasks_.front());
      tasks_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard<std::mutex> lk(mu_);
      --in_flight_;
      if (tasks_.empty() && in_flight_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace aets
