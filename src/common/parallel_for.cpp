#include "common/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/env.hpp"

namespace mifo {

void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  threads = std::min(threads, n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};  // next unclaimed index
  std::mutex error_mutex;
  std::exception_ptr error;  // guarded by error_mutex
  const auto run = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!error) error = std::current_exception();
        next.store(n);  // abandon the iterations nobody has claimed yet
      }
    }
  };
  {
    // Declared after everything `run` captures, so the jthreads join (on
    // the exception path of emplace_back too) before those go away.
    std::vector<std::jthread> helpers;
    helpers.reserve(threads - 1);
    for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(run);
    run();
  }
  if (error) std::rethrow_exception(error);
}

std::size_t default_thread_count() {
  const std::uint64_t requested = env_u64("MIFO_THREADS", 0);
  if (requested > 0) return static_cast<std::size_t>(requested);
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace mifo
