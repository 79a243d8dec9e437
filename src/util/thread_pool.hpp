// Fixed-size thread pool for long-running tasks.
//
// It hosts the server's event loops (one task per loop), the sharded
// engine's workers (one task per shard) and load_gen's client threads.
// The pool is a classic mutex/condvar work queue — its tasks are few and
// long-lived, so lock-free queues would buy nothing.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace pfp::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (minimum one worker either way).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; the future resolves with its result (or exception).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using Result = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<Result()>>(std::forward<F>(fn));
    std::future<Result> future = task->get_future();
    {
      MutexLock lock(mutex_);
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Safe from any thread: workers_ is written only during construction
  /// (const-after-construction, so no capability guards it).
  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::queue<std::function<void()>> queue_ PFP_GUARDED_BY(mutex_);
  std::condition_variable cv_;
  bool stopping_ PFP_GUARDED_BY(mutex_) = false;
};

}  // namespace pfp::util
