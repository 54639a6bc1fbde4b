#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mifo {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, SizeRespectsRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, hits.size(), [&hits](std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroIterations) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for(pool, 0, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleThreadFallback) {
  ThreadPool pool(1);
  std::vector<int> order;
  parallel_for(pool, 5, [&order](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  // Serial fallback preserves order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, SumMatchesSerial) {
  ThreadPool pool(4);
  std::vector<long> partial(10000);
  parallel_for(pool, partial.size(), [&partial](std::size_t i) {
    partial[i] = static_cast<long>(i) * 3;
  });
  const long total = std::accumulate(partial.begin(), partial.end(), 0L);
  EXPECT_EQ(total, 3L * 9999L * 10000L / 2L);
}

TEST(ParallelFor, RangeOverloadCoversExactlyTheHalfOpenInterval) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  parallel_for(pool, 37, 73, [&hits](std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 37 && i < 73) ? 1 : 0) << i;
  }
}

TEST(ParallelFor, EmptyAndInvertedRanges) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for(pool, 5, 5, [&called](std::size_t) { called = true; });
  parallel_for(pool, 7, 3, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, OddSizedRangesNotDivisibleByChunking) {
  ThreadPool pool(4);
  // Sizes around the worker*4 chunking boundary, including primes.
  for (const std::size_t n : {1u, 2u, 3u, 5u, 15u, 16u, 17u, 97u, 1009u}) {
    std::vector<std::atomic<int>> hits(n);
    parallel_for(pool, n, [&hits](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << n;
  }
}

TEST(ParallelFor, PropagatesExceptionFromWorkerTask) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    parallel_for(pool, 1000, [&ran](std::size_t i) {
      ran.fetch_add(1);
      if (i == 137) throw std::runtime_error("boom at 137");
    });
    FAIL() << "expected exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 137");
  }
  // Iterations not yet claimed when the exception hit were abandoned.
  EXPECT_LE(ran.load(), 1000);
  // The pool must remain usable afterwards.
  std::atomic<int> c{0};
  parallel_for(pool, 10, [&c](std::size_t) { c.fetch_add(1); });
  EXPECT_EQ(c.load(), 10);
}

TEST(ParallelFor, PropagatesExceptionOnSerialFallbackToo) {
  ThreadPool pool(1);
  EXPECT_THROW(
      parallel_for(pool, 5, [](std::size_t) { throw std::logic_error("x"); }),
      std::logic_error);
}

TEST(ThreadPool, NestedSubmitFromInsideATask) {
  ThreadPool pool(2);
  std::atomic<int> outer{0};
  std::atomic<int> inner{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &outer, &inner] {
      outer.fetch_add(1);
      pool.submit([&inner] { inner.fetch_add(1); });
    });
  }
  pool.wait_idle();  // counts the nested tasks: submitted before parent ends
  EXPECT_EQ(outer.load(), 8);
  EXPECT_EQ(inner.load(), 8);
}

TEST(ParallelFor, NestedParallelForInsideAPoolTaskDoesNotDeadlock) {
  ThreadPool pool(2);  // fewer workers than outer iterations
  std::atomic<int> total{0};
  parallel_for(pool, 4, [&pool, &total](std::size_t) {
    parallel_for(pool, 4, [&total](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(ParallelFor, ConcurrentCallsOnTheSharedPoolStayIndependent) {
  ThreadPool pool(4);
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  std::thread t([&pool, &b] {
    parallel_for(pool, 500, [&b](std::size_t) { b.fetch_add(1); });
  });
  parallel_for(pool, 500, [&a](std::size_t) { a.fetch_add(1); });
  t.join();
  EXPECT_EQ(a.load(), 500);
  EXPECT_EQ(b.load(), 500);
}

}  // namespace
}  // namespace mifo
