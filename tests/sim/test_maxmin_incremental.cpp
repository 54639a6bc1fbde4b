// IncrementalMaxMin vs from-scratch differential tests (the PR-1/PR-5/PR-8
// keep-the-old-code-as-oracle pattern, mirroring
// tests/bgp/test_route_store_diff.cpp): seeded random arrival / departure /
// path-change / capacity-change sequences must leave the incrementally
// maintained rates element-identical to the canonical from-scratch solve
// after every single event, and within tolerance of the PR-1 reference
// solver on the full monolithic instance.
#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "oracle/maxmin_reference.hpp"
#include "sim/maxmin.hpp"

namespace mifo::sim {
namespace {

using Slot = IncrementalMaxMin::Slot;

std::vector<std::uint32_t> random_path(Rng& rng, std::size_t num_links,
                                       std::size_t max_len) {
  const std::size_t len = 1 + rng.bounded(max_len);
  std::vector<std::uint32_t> path;
  path.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    path.push_back(static_cast<std::uint32_t>(rng.bounded(num_links)));
  }
  return path;
}

/// Full-instance rates from the PR-1 reference solver, flows ordered by
/// admission (the canonical order), unfiltered paths.
std::map<Slot, double> reference_rates(
    const IncrementalMaxMin& inc,
    const std::map<Slot, std::vector<std::uint32_t>>& live_paths,
    std::span<const double> capacity) {
  std::vector<Slot> order;
  std::vector<std::span<const std::uint32_t>> views;
  for (const auto& [slot, path] : live_paths) {
    order.push_back(slot);
    views.emplace_back(path);
  }
  MaxMinInput in;
  in.flow_links = views;
  in.link_capacity = capacity;
  in.flow_cap = inc.flow_cap();
  in.num_links = capacity.size();
  const std::vector<double> rates = max_min_rates_reference(in);
  std::map<Slot, double> out;
  for (std::size_t i = 0; i < order.size(); ++i) out[order[i]] = rates[i];
  return out;
}

/// Seeded random op sequence; after EVERY event the incremental state must
/// be bitwise identical to the from-scratch canonical oracle, and the
/// RateChange stream must reproduce the stored rates exactly.
void run_random_sequence(std::uint64_t seed, double flow_cap,
                         std::size_t events) {
  constexpr std::size_t kLinks = 48;
  Rng rng(seed);
  std::vector<double> caps(kLinks);
  for (double& c : caps) c = rng.uniform(5.0, 25.0);
  const std::vector<double> caps0 = caps;

  IncrementalMaxMin inc(caps, flow_cap);
  // Shadow state driven purely by the public event API.
  std::map<Slot, std::vector<std::uint32_t>> live;  // slot -> path (dedup'd)
  std::map<Slot, double> shadow;                    // slot -> rate via changes()

  auto apply_changes = [&] {
    for (const auto& ch : inc.changes()) shadow[ch.slot] = ch.new_rate;
  };
  auto dedup = [](std::vector<std::uint32_t> p) {
    std::vector<std::uint32_t> out;
    for (const std::uint32_t l : p) {
      if (std::find(out.begin(), out.end(), l) == out.end()) out.push_back(l);
    }
    return out;
  };

  for (std::size_t e = 0; e < events; ++e) {
    const double roll = rng.uniform();
    if (live.empty() || roll < 0.5) {
      const auto path = random_path(rng, kLinks, 5);
      const Slot s = inc.add_flow(path);
      live[s] = dedup(path);
      shadow[s] = inc.rate(s);
      apply_changes();
    } else if (roll < 0.8) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.bounded(live.size())));
      inc.remove_flow(it->first);
      shadow.erase(it->first);
      live.erase(it);
      apply_changes();
    } else if (roll < 0.93) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.bounded(live.size())));
      const auto path = random_path(rng, kLinks, 5);
      inc.update_path(it->first, path);
      it->second = dedup(path);
      apply_changes();
    } else {
      const auto l = static_cast<std::uint32_t>(rng.bounded(kLinks));
      const double c = caps0[l] * rng.uniform(0.2, 2.0);
      inc.set_capacity(l, c);
      caps[l] = c;
      apply_changes();
    }

    // The headline assertion: incremental == from-scratch, bitwise, after
    // every single event.
    ASSERT_TRUE(inc.check_differential()) << "seed=" << seed << " event=" << e;
    ASSERT_EQ(inc.active_flows(), live.size());

    // changes() must carry every value move: replaying it reproduces the
    // stored rates exactly.
    for (const auto& [slot, rate] : shadow) {
      ASSERT_EQ(rate, inc.rate(slot)) << "seed=" << seed << " event=" << e;
    }

    // Every ~20 events, cross-check the canonical decomposition against the
    // monolithic PR-1 reference solver (different FP evaluation order, so
    // tolerance- rather than bit-compared).
    if (e % 20 == 19) {
      const auto ref = reference_rates(inc, live, caps);
      for (const auto& [slot, want] : ref) {
        const double got = inc.rate(slot);
        ASSERT_NEAR(got, want, 1e-5 + 1e-5 * want)
            << "seed=" << seed << " event=" << e << " slot=" << slot;
      }
    }
  }
  EXPECT_EQ(inc.stats().differential_mismatches, 0u);
  EXPECT_EQ(inc.stats().differential_checks, events);
}

class IncrementalSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalSeeds, CappedRandomSequenceDifferential) {
  run_random_sequence(GetParam(), 3.0, 300);
}

TEST_P(IncrementalSeeds, UncappedRandomSequenceDifferential) {
  run_random_sequence(GetParam() + 100, 0.0, 200);
}

TEST_P(IncrementalSeeds, TightCapRandomSequenceDifferential) {
  // Cap near the smallest capacities: most links constrained, components
  // large — stresses split/merge bookkeeping rather than the pruning.
  run_random_sequence(GetParam() + 200, 8.0, 200);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(IncrementalMaxMinTest, SingleCappedFlow) {
  IncrementalMaxMin inc({10.0, 10.0}, 4.0);
  const Slot s = inc.add_flow(std::vector<std::uint32_t>{0, 1});
  EXPECT_DOUBLE_EQ(inc.rate(s), 4.0);
  ASSERT_EQ(inc.changes().size(), 1u);
  EXPECT_EQ(inc.changes()[0].slot, s);
  EXPECT_DOUBLE_EQ(inc.changes()[0].new_rate, 4.0);
  EXPECT_TRUE(inc.check_differential());
  inc.remove_flow(s);
  EXPECT_EQ(inc.active_flows(), 0u);
  EXPECT_TRUE(inc.changes().empty());  // nobody left to move
  EXPECT_TRUE(inc.check_differential());
}

TEST(IncrementalMaxMinTest, DepartureResharesBottleneck) {
  IncrementalMaxMin inc({10.0}, 0.0);
  const Slot a = inc.add_flow(std::vector<std::uint32_t>{0});
  const Slot b = inc.add_flow(std::vector<std::uint32_t>{0});
  EXPECT_DOUBLE_EQ(inc.rate(a), 5.0);
  EXPECT_DOUBLE_EQ(inc.rate(b), 5.0);
  inc.remove_flow(a);
  ASSERT_EQ(inc.changes().size(), 1u);
  EXPECT_EQ(inc.changes()[0].slot, b);
  EXPECT_DOUBLE_EQ(inc.changes()[0].new_rate, 10.0);
  EXPECT_TRUE(inc.check_differential());
}

TEST(IncrementalMaxMinTest, UnconstrainedLinksDoNotCoupleFlows) {
  // Two capped flows share a fat link: neither can congest it, so each is
  // its own component and the arrival of the second never re-solves the
  // first.
  IncrementalMaxMin inc({1000.0}, 5.0);
  const Slot a = inc.add_flow(std::vector<std::uint32_t>{0});
  (void)a;
  const auto solved_before = inc.stats().flows_resolved;
  const Slot b = inc.add_flow(std::vector<std::uint32_t>{0});
  EXPECT_DOUBLE_EQ(inc.rate(b), 5.0);
  EXPECT_EQ(inc.stats().flows_resolved, solved_before + 1);  // b alone
  EXPECT_EQ(inc.stats().peak_component, 1u);
  EXPECT_TRUE(inc.check_differential());
}

TEST(IncrementalMaxMinTest, ArrivalConstrainsSharedLinkAndMergesComponents) {
  // Third capped flow pushes the shared link over n*cap > capacity: all
  // three now couple and share 12 Mbps max–min fair.
  IncrementalMaxMin inc({12.0}, 5.0);
  const Slot a = inc.add_flow(std::vector<std::uint32_t>{0});
  const Slot b = inc.add_flow(std::vector<std::uint32_t>{0});
  EXPECT_DOUBLE_EQ(inc.rate(a), 5.0);
  EXPECT_DOUBLE_EQ(inc.rate(b), 5.0);
  const Slot c = inc.add_flow(std::vector<std::uint32_t>{0});
  EXPECT_DOUBLE_EQ(inc.rate(a), 4.0);
  EXPECT_DOUBLE_EQ(inc.rate(b), 4.0);
  EXPECT_DOUBLE_EQ(inc.rate(c), 4.0);
  EXPECT_EQ(inc.stats().peak_component, 3u);
  EXPECT_TRUE(inc.check_differential());
}

TEST(IncrementalMaxMinTest, UpdatePathNoopReportsNothing) {
  IncrementalMaxMin inc({10.0, 10.0}, 4.0);
  const Slot s = inc.add_flow(std::vector<std::uint32_t>{0, 1});
  const auto events_before = inc.stats().events;
  inc.update_path(s, std::vector<std::uint32_t>{0, 1, 0});  // dedups to same
  EXPECT_TRUE(inc.changes().empty());
  EXPECT_EQ(inc.stats().events, events_before);
  EXPECT_TRUE(inc.check_differential());
}

TEST(IncrementalMaxMinTest, UpdatePathMovesLoad) {
  IncrementalMaxMin inc({10.0, 10.0}, 0.0);
  const Slot a = inc.add_flow(std::vector<std::uint32_t>{0});
  const Slot b = inc.add_flow(std::vector<std::uint32_t>{0});
  EXPECT_DOUBLE_EQ(inc.rate(b), 5.0);
  inc.update_path(b, std::vector<std::uint32_t>{1});
  EXPECT_DOUBLE_EQ(inc.rate(a), 10.0);
  EXPECT_DOUBLE_EQ(inc.rate(b), 10.0);
  EXPECT_TRUE(inc.check_differential());
}

TEST(IncrementalMaxMinTest, SetCapacityOnIdleOrUnconstrainedLinkIsFree) {
  IncrementalMaxMin inc({1000.0, 1000.0}, 5.0);
  const Slot s = inc.add_flow(std::vector<std::uint32_t>{0});
  (void)s;
  const auto solved_before = inc.stats().flows_resolved;
  inc.set_capacity(1, 500.0);  // no flows: nothing to do
  EXPECT_TRUE(inc.changes().empty());
  inc.set_capacity(0, 800.0);  // loaded but still unconstrainable
  EXPECT_TRUE(inc.changes().empty());
  EXPECT_EQ(inc.stats().flows_resolved, solved_before);
  EXPECT_TRUE(inc.check_differential());
}

TEST(IncrementalMaxMinTest, SetCapacityDegradeThenRestore) {
  IncrementalMaxMin inc({1000.0}, 5.0);
  const Slot a = inc.add_flow(std::vector<std::uint32_t>{0});
  const Slot b = inc.add_flow(std::vector<std::uint32_t>{0});
  inc.set_capacity(0, 6.0);  // now 2 * 5 > 6: constrained, fair share 3/3
  EXPECT_DOUBLE_EQ(inc.rate(a), 3.0);
  EXPECT_DOUBLE_EQ(inc.rate(b), 3.0);
  EXPECT_TRUE(inc.check_differential());
  inc.set_capacity(0, 1000.0);  // restore: both back to the cap
  EXPECT_DOUBLE_EQ(inc.rate(a), 5.0);
  EXPECT_DOUBLE_EQ(inc.rate(b), 5.0);
  EXPECT_TRUE(inc.check_differential());
}

TEST(IncrementalMaxMinTest, SlotsAreReusedAfterRemoval) {
  IncrementalMaxMin inc({10.0}, 2.0);
  const Slot a = inc.add_flow(std::vector<std::uint32_t>{0});
  inc.remove_flow(a);
  const Slot b = inc.add_flow(std::vector<std::uint32_t>{0});
  EXPECT_EQ(a, b);  // dense slot table: freed slots recycle
  EXPECT_DOUBLE_EQ(inc.rate(b), 2.0);
  EXPECT_TRUE(inc.check_differential());
}

TEST(IncrementalMaxMinTest, CappedCrowdReductionExceedsFivefold) {
  // The acceptance-criterion regime: many access-capped flows over fat
  // links. Every flow is (almost always) its own component, so per-event
  // work stays O(path) while the from-scratch baseline scans the whole
  // population — the reduction factor must clear 5x by a wide margin.
  constexpr std::size_t kLinks = 256;
  Rng rng(42);
  std::vector<double> caps(kLinks, 1000.0);
  IncrementalMaxMin inc(caps, 5.0);
  std::vector<Slot> slots;
  for (std::size_t i = 0; i < 400; ++i) {
    slots.push_back(inc.add_flow(random_path(rng, kLinks, 4)));
  }
  for (std::size_t i = 0; i < 200; ++i) {
    const std::size_t j = rng.bounded(slots.size());
    inc.remove_flow(slots[j]);
    slots[j] = slots.back();
    slots.pop_back();
  }
  EXPECT_TRUE(inc.check_differential());
  EXPECT_GT(inc.stats().reduction(), 5.0);
}

TEST(IncrementalMaxMinTest, OracleMatchesReferenceSolver) {
  // The canonical decomposition itself must agree with the monolithic PR-1
  // reference solver (tolerance: different FP summation order).
  Rng rng(7);
  constexpr std::size_t kLinks = 32;
  std::vector<double> caps(kLinks);
  for (double& c : caps) c = rng.uniform(5.0, 20.0);
  IncrementalMaxMin inc(caps, 4.0);
  std::map<Slot, std::vector<std::uint32_t>> live;
  for (std::size_t i = 0; i < 60; ++i) {
    const auto path = random_path(rng, kLinks, 5);
    const Slot s = inc.add_flow(path);
    std::vector<std::uint32_t> dd;
    for (const std::uint32_t l : path) {
      if (std::find(dd.begin(), dd.end(), l) == dd.end()) dd.push_back(l);
    }
    live[s] = dd;
  }
  const auto ref = reference_rates(inc, live, caps);
  const auto oracle = inc.oracle_rates();
  for (const auto& [slot, want] : ref) {
    EXPECT_NEAR(oracle[slot], want, 1e-5 + 1e-5 * want);
  }
}

}  // namespace
}  // namespace mifo::sim
