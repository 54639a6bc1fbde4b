// Fork-join parallel_for over std::jthread.
//
// The heavy loops in this repo (per-destination route computation,
// independent experiment arms) are embarrassingly parallel and each runs
// once per call site, so every call forks its own threads and joins them
// before it returns: no pool, no queue, nothing shared between calls.
#pragma once

#include <cstddef>
#include <functional>

namespace mifo {

/// Runs `fn(i)` for every i in [0, n) on up to `threads` threads, the
/// calling thread counting as one of them; returns once every iteration has
/// finished. `threads <= 1` (or n <= 1) runs serially in index order on the
/// caller. Otherwise iterations are claimed one index at a time, so `fn`
/// must be safe to call concurrently for distinct i. If iterations throw,
/// the first exception caught is rethrown after every thread has joined;
/// iterations not yet claimed by then are skipped. Nested and concurrent
/// calls are independent (each forks its own threads).
void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

/// Worker count selected by the MIFO_THREADS environment variable;
/// 0 / unset means std::thread::hardware_concurrency().
[[nodiscard]] std::size_t default_thread_count();

}  // namespace mifo
