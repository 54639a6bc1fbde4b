// dp::EventQueue against the binary heap it replaced: a
// std::priority_queue ordered by (time, push sequence). Seeded random
// interleavings of pushes, bounded pops and peeks must pop the same
// entries in the same order.

#include "dataplane/event_queue.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "common/rng.hpp"

namespace mifo::dp {
namespace {

constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();

/// The replaced heap: earliest time first, then earliest push.
class HeapOracle {
 public:
  void push(SimTime t, std::uint64_t id) { heap_.push({t, seq_++, id}); }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] SimTime min_time() const {
    return heap_.empty() ? kInf : heap_.top().t;
  }
  std::uint64_t pop() {
    const std::uint64_t id = heap_.top().id;
    heap_.pop();
    return id;
  }

 private:
  struct Entry {
    SimTime t;
    std::uint64_t seq;
    std::uint64_t id;
  };
  struct Later {
    bool operator()(const Entry& x, const Entry& y) const {
      if (x.t != y.t) return x.t > y.t;
      return x.seq > y.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::uint64_t seq_ = 0;
};

/// Drives the queue and the oracle through one episode of `ops` random
/// operations from time 0, the way Network drives its queue: pushes at or
/// after `now`, pops bounded by a run horizon, `now` left at the horizon
/// when a bounded run stops short of the pending minimum. Returns the
/// number of pops compared.
std::size_t run_episode(std::uint64_t seed, std::size_t ops) {
  Rng rng(seed);
  EventQueue<std::uint64_t> q;
  HeapOracle oracle;
  std::vector<SimTime> recent;  // times already pushed: exact ties
  SimTime now = 0.0;
  std::uint64_t next_id = 0;
  std::size_t pops = 0;

  const auto push = [&](SimTime t) {
    q.push(t, next_id);
    oracle.push(t, next_id);
    ++next_id;
    if (recent.size() < 64) {
      recent.push_back(t);
    } else {
      recent[rng.bounded(recent.size())] = t;
    }
  };
  // ±0.0 at the start of every episode, in both orders.
  push(-0.0);
  push(0.0);
  push(-0.0);

  for (std::size_t op = 0; op < ops; ++op) {
    const std::uint64_t dice = rng.bounded(100);
    if (dice < 50) {
      SimTime t = now;
      const std::uint64_t how = rng.bounded(6);
      if (how == 0 && !recent.empty()) {
        // Heavy exact ties with something already pushed, when not past.
        const SimTime r = recent[rng.bounded(recent.size())];
        t = r >= now ? r : now;
      } else if (how == 1) {
        t = now;  // a tie with the current instant
      } else if (how == 2 && oracle.min_time() > now &&
                 oracle.min_time() < kInf) {
        // Between now and the pending minimum (after a bounded run stopped
        // short of it): must land before it without disturbing it.
        t = now + rng.uniform() * (oracle.min_time() - now);
      } else {
        // Delays from 1e-9 s to 1e6 s, log-uniform.
        t = now + std::pow(10.0, -9.0 + 15.0 * rng.uniform());
      }
      push(t);
    } else if (dice < 90) {
      // A bounded run: the horizon is either past the minimum or short of
      // it (then `now` moves to the horizon, as Network::run_until does).
      const SimTime min = oracle.min_time();
      SimTime bound = kInf;
      if (min < kInf && rng.bounded(4) == 0) {
        bound = now + rng.uniform() * (min - now);
      }
      SimTime t = -1.0;
      std::uint64_t id = 0;
      const bool popped = q.pop_at_most(bound, t, id);
      const bool want = !oracle.empty() && oracle.min_time() <= bound;
      EXPECT_EQ(popped, want) << "seed " << seed << " op " << op;
      if (popped != want) return pops;
      if (popped) {
        EXPECT_EQ(t, oracle.min_time()) << "seed " << seed << " op " << op;
        const std::uint64_t want_id = oracle.pop();
        EXPECT_EQ(id, want_id) << "seed " << seed << " op " << op;
        if (id != want_id) return pops;
        now = t;
        ++pops;
      } else if (bound < kInf && bound > now) {
        now = bound;
      }
    } else {
      // A peek never settles: it reports the pending minimum, +inf empty.
      EXPECT_EQ(q.min_time(), oracle.min_time());
      EXPECT_EQ(q.empty(), oracle.empty());
    }
  }
  // Drain: whatever is left pops in oracle order too.
  SimTime t = 0.0;
  std::uint64_t id = 0;
  while (q.pop_at_most(kInf, t, id)) {
    EXPECT_FALSE(oracle.empty());
    if (oracle.empty()) return pops;
    EXPECT_EQ(t, oracle.min_time());
    EXPECT_EQ(id, oracle.pop());
    ++pops;
  }
  EXPECT_TRUE(oracle.empty());
  EXPECT_TRUE(q.empty());
  return pops;
}

TEST(EventQueue, MatchesBinaryHeapOracleOnRandomInterleavings) {
  // 20 episodes × 50,000 operations: more than 10^6 in all.
  std::size_t pops = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    pops += run_episode(seed, 50'000);
    if (HasFailure()) return;
  }
  EXPECT_GT(pops, 400'000u);
}

TEST(EventQueue, EqualTimesPopInPushOrder) {
  EventQueue<int> q;
  for (int i = 0; i < 5; ++i) q.push(1.5, i);
  q.push(1.0, 10);
  SimTime t = 0.0;
  int v = -1;
  ASSERT_TRUE(q.pop_at_most(kInf, t, v));
  EXPECT_EQ(t, 1.0);
  EXPECT_EQ(v, 10);
  // Pushed after the pop settled on 1.0: still behind the earlier 1.5s.
  q.push(1.5, 5);
  for (int i = 0; i <= 5; ++i) {
    ASSERT_TRUE(q.pop_at_most(kInf, t, v));
    EXPECT_EQ(t, 1.5);
    EXPECT_EQ(v, i);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.min_time(), kInf);
}

TEST(EventQueue, PeekAndShortBoundLeaveRoomBeforeTheMinimum) {
  // A bounded run that stops short of the minimum must not settle on it:
  // the caller may still push between its horizon and the minimum.
  EventQueue<int> q;
  q.push(2.0, 0);
  SimTime t = 0.0;
  int v = -1;
  EXPECT_EQ(q.min_time(), 2.0);
  EXPECT_FALSE(q.pop_at_most(1.0, t, v));
  q.push(1.5, 1);
  EXPECT_EQ(q.min_time(), 1.5);
  ASSERT_TRUE(q.pop_at_most(kInf, t, v));
  EXPECT_EQ(t, 1.5);
  EXPECT_EQ(v, 1);
  ASSERT_TRUE(q.pop_at_most(2.0, t, v));
  EXPECT_EQ(t, 2.0);
  EXPECT_EQ(v, 0);
}

TEST(EventQueueDeathTest, PushBeforeLastPopAborts) {
  EventQueue<int> q;
  q.push(1.0, 0);
  SimTime t = 0.0;
  int v = -1;
  ASSERT_TRUE(q.pop_at_most(kInf, t, v));
  EXPECT_DEATH(q.push(0.5, 1), "Precondition");
  EXPECT_DEATH(q.push(std::nan(""), 1), "Precondition");
}

}  // namespace
}  // namespace mifo::dp
