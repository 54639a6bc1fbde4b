// Property tests for the delta routing table (DESIGN.md §5.1b): the
// algebraic laws a delta engine must satisfy regardless of topology —
// withdraw leaves no surviving state, fail/repair pairs round-trip
// bit-for-bit, commuting events are order-insensitive — plus the
// planted-staleness negative control and a held segment outliving the
// events that replace it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "bgp/delta.hpp"
#include "bgp/route_store.hpp"
#include "topo/generator.hpp"

namespace mifo {
namespace {

using bgp::DeltaRoutingTable;
using bgp::DeltaStats;
using bgp::Route;
using bgp::RouteEvent;
using bgp::RouteStore;

topo::AsGraph make_graph(std::uint64_t seed, std::size_t ases = 48) {
  topo::GeneratorParams p;
  p.num_ases = ases;
  p.seed = seed;
  return topo::generate_topology(p);
}

std::vector<AsId> all_ases(const topo::AsGraph& g) {
  std::vector<AsId> d;
  for (std::uint32_t i = 0; i < g.num_ases(); ++i) d.emplace_back(i);
  return d;
}

std::pair<AsId, AsId> some_adjacency(const topo::AsGraph& g,
                                     std::size_t skip = 0) {
  for (std::uint32_t i = 0; i < g.num_ases(); ++i) {
    const AsId a(i);
    for (const auto& nb : g.neighbors(a)) {
      if (a < nb.as) {
        if (skip-- == 0) return {a, nb.as};
      }
    }
  }
  ADD_FAILURE() << "topology has too few adjacencies";
  return {AsId::invalid(), AsId::invalid()};
}

// ---------------------------------------------------------------------------
// Withdraw semantics.
// ---------------------------------------------------------------------------

TEST(RouteDeltaProps, WithdrawLeavesNoSurvivingRoute) {
  const topo::AsGraph g = make_graph(11);
  DeltaRoutingTable table(g, all_ases(g));
  const AsId origin(3);

  const auto before = table.segment(origin);
  const DeltaStats st = table.apply(RouteEvent::withdraw(origin));
  ASSERT_TRUE(st.applied);
  EXPECT_EQ(st.recomputed, 1u);  // per-destination independence
  EXPECT_EQ(st.patched, 0u);
  EXPECT_NE(table.segment(origin).get(), before.get());

  const auto seg = table.segment(origin);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(seg->store.num_reachable(), 0u);
  for (std::uint32_t i = 0; i < g.num_ases(); ++i) {
    const AsId as(i);
    EXPECT_FALSE(seg->store.best(as).valid()) << "as " << i;
    EXPECT_TRUE(seg->store.rib(as).empty()) << "as " << i;
    EXPECT_TRUE(seg->store.path(as).empty()) << "as " << i;
    for (const auto& nb : g.neighbors(as)) {
      EXPECT_FALSE(seg->store.rib_from(as, nb.as).has_value())
          << "as " << i << " nb " << nb.as.value();
    }
  }
  // Every other destination is untouched by a prefix event.
  for (std::uint32_t i = 0; i < g.num_ases(); ++i) {
    if (AsId(i) == origin) continue;
    EXPECT_GT(table.segment(AsId(i))->store.num_reachable(), 0u);
  }
}

TEST(RouteDeltaProps, DuplicateEventsAreNoOps) {
  const topo::AsGraph g = make_graph(12);
  DeltaRoutingTable table(g, all_ases(g));
  const AsId origin(5);
  const auto [a, b] = some_adjacency(g);

  ASSERT_TRUE(table.apply(RouteEvent::withdraw(origin)).applied);
  EXPECT_FALSE(table.apply(RouteEvent::withdraw(origin)).applied);
  EXPECT_FALSE(table.apply(RouteEvent::reannounce(AsId(6))).applied);

  ASSERT_TRUE(table.apply(RouteEvent::session_down(a, b)).applied);
  EXPECT_FALSE(table.apply(RouteEvent::session_down(a, b)).applied);
  EXPECT_FALSE(table.apply(RouteEvent::session_down(b, a)).applied);
  ASSERT_TRUE(table.apply(RouteEvent::session_up(b, a)).applied);
  EXPECT_FALSE(table.apply(RouteEvent::session_up(a, b)).applied);
}

// ---------------------------------------------------------------------------
// Round trips: fail/repair pairs restore every view bit-for-bit.
// ---------------------------------------------------------------------------

TEST(RouteDeltaProps, WithdrawReannounceRoundTripsBitForBit) {
  const topo::AsGraph g = make_graph(13);
  DeltaRoutingTable table(g, all_ases(g));
  const AsId origin(7);

  const auto before = table.segment(origin);
  ASSERT_TRUE(table.apply(RouteEvent::withdraw(origin)).applied);
  ASSERT_TRUE(table.apply(RouteEvent::reannounce(origin)).applied);
  const auto after = table.segment(origin);

  ASSERT_NE(after.get(), before.get());  // genuinely recomputed...
  EXPECT_TRUE(bgp::stores_identical(before->store, after->store));
}

TEST(RouteDeltaProps, SessionDownUpRoundTripsBitForBit) {
  const topo::AsGraph g = make_graph(14);
  const std::vector<AsId> dests = all_ases(g);
  DeltaRoutingTable table(g, dests);
  const auto [a, b] = some_adjacency(g, 2);

  std::vector<std::shared_ptr<const bgp::RouteSegment>> before;
  for (const AsId d : dests) before.push_back(table.segment(d));

  ASSERT_TRUE(table.apply(RouteEvent::session_down(a, b)).applied);
  ASSERT_TRUE(table.apply(RouteEvent::session_up(a, b)).applied);

  for (std::size_t i = 0; i < dests.size(); ++i) {
    EXPECT_TRUE(bgp::stores_identical(before[i]->store,
                                      table.segment(dests[i])->store))
        << "dest " << dests[i].value();
  }
  EXPECT_TRUE(table.differential_check().empty());
}

TEST(RouteDeltaProps, NoSurvivingRouteCrossesDownedSession) {
  const topo::AsGraph g = make_graph(15);
  const std::vector<AsId> dests = all_ases(g);
  DeltaRoutingTable table(g, dests);
  const auto [a, b] = some_adjacency(g, 1);

  ASSERT_TRUE(table.apply(RouteEvent::session_down(a, b)).applied);
  for (const AsId d : dests) {
    const auto seg = table.segment(d);
    EXPECT_FALSE(seg->store.rib_from(a, b).has_value()) << d.value();
    EXPECT_FALSE(seg->store.rib_from(b, a).has_value()) << d.value();
    for (std::uint32_t i = 0; i < g.num_ases(); ++i) {
      const auto path = seg->store.path(AsId(i));
      for (std::size_t h = 0; h + 1 < path.size(); ++h) {
        const bool crosses = (path[h] == a && path[h + 1] == b) ||
                             (path[h] == b && path[h + 1] == a);
        EXPECT_FALSE(crosses) << "dest " << d.value() << " via as " << i;
      }
    }
  }
}

TEST(RouteDeltaProps, SessionDownSplitsRecomputeAndPatchByAssignmentChange) {
  // The three-way bucket split is observable from outside: a destination is
  // RECOMPUTED iff its best assignment changed, PATCHED iff its segment was
  // swapped with the assignment reused verbatim, UNCHANGED iff the segment
  // is pointer-identical — and the patched stores must still match the
  // from-scratch oracle (the patch rebuilt the views on the new graph).
  const topo::AsGraph g = make_graph(21);
  const std::vector<AsId> dests = all_ases(g);
  DeltaRoutingTable table(g, dests);

  bool exercised = false;
  for (std::size_t skip = 0; skip < 6; ++skip) {
    const auto [a, b] = some_adjacency(g, skip);
    std::vector<std::shared_ptr<const bgp::RouteSegment>> before;
    for (const AsId d : dests) before.push_back(table.segment(d));

    const DeltaStats st = table.apply(RouteEvent::session_down(a, b));
    ASSERT_TRUE(st.applied);
    std::size_t recomputed = 0;
    std::size_t patched = 0;
    for (std::size_t i = 0; i < dests.size(); ++i) {
      const auto after = table.segment(dests[i]);
      if (after.get() == before[i].get()) {
        // Kept: the old segment held no row across the edge at all.
        EXPECT_FALSE(before[i]->store.rib_from(a, b).has_value());
        EXPECT_FALSE(before[i]->store.rib_from(b, a).has_value());
        continue;
      }
      EXPECT_EQ(after->epoch, st.epoch);
      const auto ob = before[i]->store.all_best();
      const auto nb = after->store.all_best();
      const bool same_assignment =
          std::equal(ob.begin(), ob.end(), nb.begin(), nb.end());
      same_assignment ? ++patched : ++recomputed;
    }
    EXPECT_EQ(recomputed, st.recomputed) << "skip " << skip;
    EXPECT_EQ(patched, st.patched) << "skip " << skip;
    exercised = exercised || (st.recomputed > 0 && st.patched > 0);
    ASSERT_TRUE(table.apply(RouteEvent::session_up(a, b)).applied);
  }
  // At least one edge exercised both buckets in the same event.
  EXPECT_TRUE(exercised);
  EXPECT_TRUE(table.differential_check().empty());
}

// ---------------------------------------------------------------------------
// Order insensitivity: commuting events yield identical views either way.
// ---------------------------------------------------------------------------

TEST(RouteDeltaProps, CommutingEventsAreOrderInsensitive) {
  const topo::AsGraph g = make_graph(16);
  const std::vector<AsId> dests = all_ases(g);
  const AsId origin(9);
  const auto [a, b] = some_adjacency(g, 3);

  DeltaRoutingTable lhs(g, dests);
  ASSERT_TRUE(lhs.apply(RouteEvent::withdraw(origin)).applied);
  ASSERT_TRUE(lhs.apply(RouteEvent::session_down(a, b)).applied);

  DeltaRoutingTable rhs(g, dests);
  ASSERT_TRUE(rhs.apply(RouteEvent::session_down(a, b)).applied);
  ASSERT_TRUE(rhs.apply(RouteEvent::withdraw(origin)).applied);

  for (const AsId d : dests) {
    EXPECT_TRUE(bgp::stores_identical(lhs.segment(d)->store,
                                      rhs.segment(d)->store))
        << "dest " << d.value();
  }
  EXPECT_TRUE(lhs.differential_check().empty());
  EXPECT_TRUE(rhs.differential_check().empty());
}

// ---------------------------------------------------------------------------
// Planted staleness: the negative control the differential oracle must
// catch (the routing-plane analogue of --mutate-valley).
// ---------------------------------------------------------------------------

TEST(RouteDeltaProps, PlantedStaleSegmentIsCaughtByDifferentialCheck) {
  const topo::AsGraph g = make_graph(17);
  DeltaRoutingTable table(g, all_ases(g));
  const AsId victim(4);

  ASSERT_TRUE(table.differential_check().empty());

  table.plant_stale(victim);
  const auto stale = table.segment(victim);
  const DeltaStats st = table.apply(RouteEvent::withdraw(victim));
  ASSERT_TRUE(st.applied);
  // A buggy delta engine's stats would still claim the work happened...
  EXPECT_EQ(st.recomputed, 1u);
  // ...but the published segment is the pre-event one, and the retained
  // from-scratch oracle exposes exactly that destination.
  EXPECT_EQ(table.segment(victim).get(), stale.get());
  EXPECT_EQ(table.differential_check(), std::vector<AsId>{victim});

  // Repairing the skipped destination (the reannounce republishes it
  // honestly) clears the mismatch.
  ASSERT_TRUE(table.apply(RouteEvent::reannounce(victim)).applied);
  EXPECT_TRUE(table.differential_check().empty());
}

// ---------------------------------------------------------------------------
// Publication: a held segment pins the graph version it was computed on.
// ---------------------------------------------------------------------------

TEST(RouteDeltaEpochSwap, SegmentsPinGraphVersionsAcrossSwaps) {
  const topo::AsGraph g = make_graph(19, 24);
  DeltaRoutingTable table(g, all_ases(g));
  const auto [a, b] = some_adjacency(g);

  // Hold a pre-event segment like a slow reader would, flap the session,
  // and keep probing the held segment across the toggled edge: the pinned
  // graph version must keep every view answerable and self-consistent.
  const AsId probe_dest(1);
  const auto held = table.segment(probe_dest);
  ASSERT_TRUE(table.apply(RouteEvent::session_down(a, b)).applied);

  EXPECT_EQ(held->graph->num_ases(), g.num_ases());
  for (std::uint32_t i = 0; i < g.num_ases(); ++i) {
    const AsId as(i);
    (void)held->store.best(as);
    (void)held->store.rib(as);
    for (const auto& nb : g.neighbors(as)) {
      (void)held->store.rib_from(as, nb.as);
    }
  }
  // The fresh segment answers the downed edge with "no row".
  const auto fresh = table.segment(probe_dest);
  EXPECT_FALSE(fresh->store.rib_from(a, b).has_value());
  EXPECT_FALSE(fresh->store.rib_from(b, a).has_value());
}

}  // namespace
}  // namespace mifo
