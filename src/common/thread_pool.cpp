#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "common/contracts.hpp"
#include "common/env.hpp"

namespace mifo {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  MIFO_EXPECTS(task != nullptr);
  {
    std::lock_guard lock(mutex_);
    MIFO_EXPECTS(!stop_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_available_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

namespace {

/// Completion tracking local to one parallel_for call, so concurrent or
/// nested invocations on the same pool never wait on each other's tasks.
/// Heap-allocated (shared with the helper tasks): a helper that is still
/// queued when the call returns must find valid state when it finally runs.
struct ForState {
  std::atomic<std::size_t> next{0};  ///< next unclaimed iteration offset
  std::atomic<bool> abort{false};    ///< set on first exception
  std::mutex mutex;
  std::condition_variable idle;
  std::size_t active = 0;  ///< helpers currently executing chunks
  std::exception_ptr error;
};

}  // namespace

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t workers = pool.size();
  if (workers <= 1 || n == 1) {
    // Serial fallback: in order, exceptions propagate directly.
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  const std::size_t chunk = std::max<std::size_t>(1, n / (workers * 4));
  auto st = std::make_shared<ForState>();

  // `fn` is only dereferenced after a successful claim, and claims are
  // impossible once the call returns (all offsets handed out, or abort set
  // before any unstarted helper checks it) — so helpers may safely outlive
  // this frame while capturing `fn` by reference.
  auto run_chunks = [&st_ref = *st, &fn, begin, n, chunk] {
    while (!st_ref.abort.load(std::memory_order_relaxed)) {
      const std::size_t lo = st_ref.next.fetch_add(chunk);
      if (lo >= n) return;
      const std::size_t hi = std::min(n, lo + chunk);
      try {
        for (std::size_t i = lo; i < hi; ++i) fn(begin + i);
      } catch (...) {
        std::lock_guard lock(st_ref.mutex);
        if (!st_ref.error) st_ref.error = std::current_exception();
        st_ref.abort.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  // One helper per worker, each looping over chunk claims. The caller
  // participates too, so progress is guaranteed even when every pool worker
  // is busy with unrelated (or ancestor) tasks — nested parallel_for from
  // inside a pool task cannot deadlock.
  const std::size_t helpers = std::min(workers, (n + chunk - 1) / chunk);
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([st, run_chunks] {
      {
        std::lock_guard lock(st->mutex);
        ++st->active;
      }
      run_chunks();
      std::lock_guard lock(st->mutex);
      if (--st->active == 0) st->idle.notify_all();
    });
  }
  run_chunks();
  // All offsets are claimed (or abort is set); wait only for helpers that
  // actually started — ones still queued will no-op when they run.
  std::unique_lock lock(st->mutex);
  st->idle.wait(lock, [&st] { return st->active == 0; });
  if (st->error) std::rethrow_exception(st->error);
}

std::size_t default_thread_count() {
  const std::uint64_t requested = env_u64("MIFO_THREADS", 0);
  if (requested > 0) return static_cast<std::size_t>(requested);
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace mifo
