// Seeded churn differential harness for the delta routing table
// (DESIGN.md §5.1b, the routing-plane sibling of test_route_store_diff).
//
// Each seed is one topology (sizes cycling 20..120 ASes) plus one seeded
// random event sequence of prefix withdrawals/re-announcements and session
// flaps. The test maintains its OWN independent model of the churn state —
// a withdrawn-origin set and a disabled-adjacency set — and after EVERY
// event rebuilds each tracked destination from scratch on an independently
// masked copy of the base graph, then asserts the delta table's published
// segment is element-identical across every reader-visible view: best
// routes, full RIB rows, AS paths, reachability counts, and per-neighbor
// `rib_from` probes over every base-graph adjacency (the probes cross the
// flapped edges through potentially stale segment graphs — exactly the
// reader pattern the stale-graph-safety argument covers).
//
// The per-event stats are cross-checked too: recomputed + patched +
// unchanged must partition the tracked universe, duplicate events must be
// no-ops, and
// destinations the delta engine claims it kept must be pointer-identical
// to their pre-event segments (no silent rebuilds, no silent skips).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "bgp/delta.hpp"
#include "bgp/route_store.hpp"
#include "bgp/routing.hpp"
#include "common/rng.hpp"
#include "topo/generator.hpp"
#include "topo/relationship.hpp"

namespace mifo {
namespace {

using bgp::DeltaRoutingTable;
using bgp::DeltaStats;
using bgp::Route;
using bgp::RouteEvent;
using bgp::RouteStore;

// ---------------------------------------------------------------------------
// The independent churn model: the test's own masked-graph constructor,
// deliberately sharing no code with DeltaRoutingTable::build_masked.
// ---------------------------------------------------------------------------

std::uint64_t edge_key(AsId a, AsId b) {
  const std::uint32_t lo = std::min(a.value(), b.value());
  const std::uint32_t hi = std::max(a.value(), b.value());
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

topo::AsGraph mask_graph_checked(const topo::AsGraph& base,
                                 const std::set<std::uint64_t>& disabled) {
  topo::AsGraph g(base.num_ases());
  for (std::uint32_t i = 0; i < base.num_ases(); ++i) {
    const AsId a(i);
    for (const auto& nb : base.neighbors(a)) {
      if (!(a < nb.as)) continue;
      if (disabled.contains(edge_key(a, nb.as))) continue;
      bool added = false;
      switch (nb.rel) {
        case topo::Rel::Customer:
          added = g.add_provider_customer(a, nb.as);
          break;
        case topo::Rel::Provider:
          added = g.add_provider_customer(nb.as, a);
          break;
        case topo::Rel::Peer:
          added = g.add_peering(a, nb.as);
          break;
      }
      EXPECT_TRUE(added);
    }
  }
  return g;
}

RouteStore expected_store(const topo::AsGraph& masked, AsId dest,
                          bool withdrawn) {
  if (withdrawn) {
    return RouteStore(
        masked,
        bgp::DestRoutes(dest, std::vector<Route>(masked.num_ases())));
  }
  return RouteStore(masked, dest);
}

// ---------------------------------------------------------------------------
// The seeded sweep.
// ---------------------------------------------------------------------------

class RouteDeltaDiff : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static topo::AsGraph make(std::uint64_t seed) {
    topo::GeneratorParams p;
    p.num_ases = 20 + (seed % 5) * 25;  // 20, 45, 70, 95, 120
    p.seed = seed;
    return topo::generate_topology(p);
  }

  static std::vector<AsId> dests(const topo::AsGraph& g, std::uint64_t seed) {
    std::vector<AsId> d;
    const std::uint32_t n = static_cast<std::uint32_t>(g.num_ases());
    const std::uint32_t stride = n <= 45 ? 1 : 7;
    for (std::uint32_t i = static_cast<std::uint32_t>(seed % stride); i < n;
         i += stride) {
      d.emplace_back(i);
    }
    return d;
  }

  static std::vector<std::pair<AsId, AsId>> adjacencies(
      const topo::AsGraph& g) {
    std::vector<std::pair<AsId, AsId>> edges;
    for (std::uint32_t i = 0; i < g.num_ases(); ++i) {
      const AsId a(i);
      for (const auto& nb : g.neighbors(a)) {
        if (a < nb.as) edges.emplace_back(a, nb.as);
      }
    }
    return edges;
  }
};

TEST_P(RouteDeltaDiff, EverySegmentMatchesScratchRebuildAfterEveryEvent) {
  const std::uint64_t seed = GetParam();
  const topo::AsGraph base = make(seed);
  const std::vector<AsId> tracked = dests(base, seed);
  const std::vector<std::pair<AsId, AsId>> edges = adjacencies(base);
  ASSERT_FALSE(edges.empty());

  DeltaRoutingTable table(base, tracked);

  // The test's independent churn state.
  std::set<AsId> withdrawn;
  std::set<std::uint64_t> disabled;
  std::vector<std::pair<AsId, AsId>> disabled_edges;

  Rng rng(seed * 7919 + 17);
  const std::size_t num_events = 16;

  const auto check_all_views = [&](const char* ctx) {
    const topo::AsGraph masked = mask_graph_checked(base, disabled);
    for (const AsId dest : tracked) {
      const auto seg = table.segment(dest);
      ASSERT_NE(seg, nullptr) << ctx;
      const RouteStore want =
          expected_store(masked, dest, withdrawn.contains(dest));
      const RouteStore& got = seg->store;

      ASSERT_EQ(got.dest(), dest) << ctx;
      ASSERT_EQ(got.num_ases(), want.num_ases()) << ctx;
      ASSERT_EQ(got.num_reachable(), want.num_reachable())
          << ctx << " dest " << dest.value();
      for (std::uint32_t i = 0; i < base.num_ases(); ++i) {
        const AsId as(i);
        ASSERT_EQ(got.best(as), want.best(as))
            << ctx << " dest " << dest.value() << " as " << i;
        const auto gp = got.path(as);
        const auto wp = want.path(as);
        ASSERT_EQ(std::vector<AsId>(gp.begin(), gp.end()),
                  std::vector<AsId>(wp.begin(), wp.end()))
            << ctx << " dest " << dest.value() << " as " << i;
        const auto gr = got.rib(as);
        const auto wr = want.rib(as);
        ASSERT_EQ(std::vector<Route>(gr.begin(), gr.end()),
                  std::vector<Route>(wr.begin(), wr.end()))
            << ctx << " dest " << dest.value() << " as " << i;
        // Per-neighbor probes over every BASE adjacency: stale segment
        // graphs and disabled edges must both answer exactly as a fresh
        // rebuild on the masked graph does.
        for (const auto& nb : base.neighbors(as)) {
          const auto gf = got.rib_from(as, nb.as);
          const auto wf = want.rib_from(as, nb.as);
          ASSERT_EQ(gf.has_value(), wf.has_value())
              << ctx << " dest " << dest.value() << " as " << i << " nb "
              << nb.as.value();
          if (wf) {
            ASSERT_EQ(*gf, *wf)
                << ctx << " dest " << dest.value() << " as " << i;
          }
        }
      }
    }
    // The retained oracle must agree in bulk too.
    ASSERT_TRUE(table.differential_check().empty()) << ctx;
  };

  check_all_views("initial");

  for (std::size_t e = 0; e < num_events; ++e) {
    // Pick an event kind the current state can accept.
    RouteEvent ev = RouteEvent::withdraw(AsId::invalid());
    const std::uint64_t dice = rng.bounded(4);
    if (dice == 0) {  // withdraw a live tracked origin
      const AsId origin = tracked[rng.bounded(tracked.size())];
      ev = RouteEvent::withdraw(origin);
    } else if (dice == 1) {  // reannounce (falls back to withdraw when none)
      if (!withdrawn.empty()) {
        auto it = withdrawn.begin();
        std::advance(it, static_cast<long>(rng.bounded(withdrawn.size())));
        ev = RouteEvent::reannounce(*it);
      } else {
        ev = RouteEvent::withdraw(tracked[rng.bounded(tracked.size())]);
      }
    } else if (dice == 2) {  // flap down a live adjacency
      const auto& [a, b] = edges[rng.bounded(edges.size())];
      ev = RouteEvent::session_down(a, b);
    } else {  // bring back a downed adjacency (falls back to down)
      if (!disabled_edges.empty()) {
        const auto& [a, b] =
            disabled_edges[rng.bounded(disabled_edges.size())];
        ev = RouteEvent::session_up(a, b);
      } else {
        const auto& [a, b] = edges[rng.bounded(edges.size())];
        ev = RouteEvent::session_down(a, b);
      }
    }

    // Capture pre-event segments for the pointer-identity check.
    std::vector<std::shared_ptr<const bgp::RouteSegment>> before;
    before.reserve(tracked.size());
    for (const AsId d : tracked) before.push_back(table.segment(d));

    const DeltaStats st = table.apply(ev);

    // Advance the independent model only when the table claims effect;
    // duplicate-event no-ops are asserted below.
    bool expect_applied = true;
    switch (ev.kind) {
      case RouteEvent::Kind::Withdraw:
        expect_applied = !withdrawn.contains(ev.a);
        if (expect_applied) withdrawn.insert(ev.a);
        break;
      case RouteEvent::Kind::Reannounce:
        expect_applied = withdrawn.contains(ev.a);
        if (expect_applied) withdrawn.erase(ev.a);
        break;
      case RouteEvent::Kind::SessionDown:
        expect_applied = !disabled.contains(edge_key(ev.a, ev.b));
        if (expect_applied) {
          disabled.insert(edge_key(ev.a, ev.b));
          disabled_edges.emplace_back(ev.a, ev.b);
        }
        break;
      case RouteEvent::Kind::SessionUp:
        expect_applied = disabled.contains(edge_key(ev.a, ev.b));
        if (expect_applied) {
          disabled.erase(edge_key(ev.a, ev.b));
          std::erase_if(disabled_edges, [&](const auto& p) {
            return edge_key(p.first, p.second) == edge_key(ev.a, ev.b);
          });
        }
        break;
    }
    ASSERT_EQ(st.applied, expect_applied) << ev.to_string();

    if (st.applied) {
      ASSERT_EQ(st.destinations, tracked.size());
      ASSERT_EQ(st.recomputed + st.patched + st.unchanged, st.destinations)
          << ev.to_string();
      // Every destination is either kept pointer-identical (no silent
      // rebuild) or swapped to a segment of the new epoch, and exactly the
      // recomputed and view-patched ones are swapped.
      std::size_t swapped = 0;
      for (std::size_t i = 0; i < tracked.size(); ++i) {
        const auto after = table.segment(tracked[i]);
        if (after.get() == before[i].get()) continue;
        ASSERT_EQ(after->epoch, st.epoch)
            << ev.to_string() << " dest " << tracked[i].value();
        ++swapped;
      }
      ASSERT_EQ(swapped, st.recomputed + st.patched) << ev.to_string();
    } else {
      ASSERT_EQ(st.recomputed + st.patched, 0u);
      for (std::size_t i = 0; i < tracked.size(); ++i) {
        ASSERT_EQ(table.segment(tracked[i]).get(), before[i].get());
      }
    }

    check_all_views(ev.to_string().c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteDeltaDiff,
                         ::testing::Range<std::uint64_t>(1, 101));

}  // namespace
}  // namespace mifo
