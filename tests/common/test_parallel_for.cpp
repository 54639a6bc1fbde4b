#include "common/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mifo {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(4, hits.size(), [&hits](std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroIterations) {
  bool called = false;
  parallel_for(2, 0, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleThreadFallback) {
  for (const std::size_t threads : {0u, 1u}) {
    std::vector<int> order;
    parallel_for(threads, 5, [&order](std::size_t i) {
      order.push_back(static_cast<int>(i));
    });
    // Serial fallback runs on the caller, in index order.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4})) << threads;
  }
}

TEST(ParallelFor, SumMatchesSerial) {
  std::vector<long> partial(10000);
  parallel_for(4, partial.size(), [&partial](std::size_t i) {
    partial[i] = static_cast<long>(i) * 3;
  });
  const long total = std::accumulate(partial.begin(), partial.end(), 0L);
  EXPECT_EQ(total, 3L * 9999L * 10000L / 2L);
}

TEST(ParallelFor, OddSizedRangesNotDivisibleByChunking) {
  // Sizes below, at and above the thread count, including primes.
  for (const std::size_t n : {1u, 2u, 3u, 5u, 15u, 16u, 17u, 97u, 1009u}) {
    std::vector<std::atomic<int>> hits(n);
    parallel_for(4, n, [&hits](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << n;
  }
}

TEST(ParallelFor, PropagatesExceptionFromWorkerTask) {
  std::atomic<int> ran{0};
  try {
    parallel_for(4, 1000, [&ran](std::size_t i) {
      ran.fetch_add(1);
      if (i == 137) throw std::runtime_error("boom at 137");
    });
    FAIL() << "expected exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 137");
  }
  // Iterations not yet claimed when the exception hit were abandoned.
  EXPECT_LE(ran.load(), 1000);
  // Nothing outlives the call: the next one starts from scratch.
  std::atomic<int> c{0};
  parallel_for(4, 10, [&c](std::size_t) { c.fetch_add(1); });
  EXPECT_EQ(c.load(), 10);
}

TEST(ParallelFor, PropagatesExceptionOnSerialFallbackToo) {
  EXPECT_THROW(
      parallel_for(1, 5, [](std::size_t) { throw std::logic_error("x"); }),
      std::logic_error);
}

TEST(ParallelFor, NestedParallelForInsideAPoolTaskDoesNotDeadlock) {
  std::atomic<int> total{0};
  parallel_for(2, 4, [&total](std::size_t) {
    parallel_for(2, 4, [&total](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(ParallelFor, ConcurrentCallsOnTheSharedPoolStayIndependent) {
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  std::thread t([&b] {
    parallel_for(4, 500, [&b](std::size_t) { b.fetch_add(1); });
  });
  parallel_for(4, 500, [&a](std::size_t) { a.fetch_add(1); });
  t.join();
  EXPECT_EQ(a.load(), 500);
  EXPECT_EQ(b.load(), 500);
}

}  // namespace
}  // namespace mifo
