// A small work-stealing-free thread pool with a parallel_for helper.
//
// The heavy loops in this repo (per-destination route computation, per-pair
// path counting, independent simulation runs) are embarrassingly parallel;
// parallel_for chunks them across hardware threads. On a single-core host it
// degrades gracefully to serial execution.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mifo {

class ThreadPool {
 public:
  /// `threads == 0` selects std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; returns immediately. Safe to call from inside a
  /// running task (the new task may start before or after the caller ends).
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished. Must not be called from
  /// inside a pool task (the calling task counts as in flight, so it would
  /// wait on itself); parallel_for tracks its own completions instead and
  /// is nestable.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Run `fn(i)` for i in [begin, end) across `pool`, in contiguous chunks.
/// Blocks until all iterations complete; the calling thread also executes
/// chunks, so nesting a parallel_for inside a pool task cannot deadlock.
/// `fn` must be safe to call concurrently for distinct i. If any iteration
/// throws, the first exception (by completion order) is rethrown on the
/// calling thread after the remaining workers drain; iterations not yet
/// started are abandoned.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

/// Convenience overload over [0, n).
inline void parallel_for(ThreadPool& pool, std::size_t n,
                         const std::function<void(std::size_t)>& fn) {
  parallel_for(pool, 0, n, fn);
}

/// Worker count selected by the MIFO_THREADS environment variable;
/// 0 / unset means std::thread::hardware_concurrency().
[[nodiscard]] std::size_t default_thread_count();

}  // namespace mifo
