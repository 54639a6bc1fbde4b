// Property tests: the three-phase route computation must agree with an
// independent fixpoint iteration of the BGP decision process, and its
// selected paths must be valley-free.

#include <gtest/gtest.h>

#include "bgp/routing.hpp"
#include "oracle/route_reference.hpp"
#include "topo/generator.hpp"
#include "topo/relationship.hpp"

namespace mifo::bgp {
namespace {

using topo::AsGraph;
using topo::Rel;

/// Reference implementation: synchronous best-response iteration until
/// fixpoint. Slow (O(rounds * E)) but derived directly from the BGP
/// decision process and export rule, with none of the three-phase insight.
std::vector<Route> reference_routes(const AsGraph& g, AsId dest) {
  const std::size_t n = g.num_ases();
  std::vector<Route> cur(n);
  cur[dest.value()] = Route{RouteClass::Self, 0, dest};
  for (std::size_t round = 0; round < 2 * n + 2; ++round) {
    bool changed = false;
    std::vector<Route> next = cur;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (AsId(i) == dest) continue;
      Route best;
      for (const auto& nb : g.neighbors(AsId(i))) {
        const Route& offer = cur[nb.as.value()];
        if (!offer.valid()) continue;
        // Does the neighbor export its best route to us?
        const Rel we_are_to_them = topo::reverse(nb.rel);
        if (!may_export(offer.cls, we_are_to_them)) continue;
        const Route imported{classify(nb.rel),
                             static_cast<std::uint16_t>(offer.path_len + 1),
                             nb.as};
        if (imported.better_than(best)) best = imported;
      }
      if (!(best == cur[i])) {
        next[i] = best;
        changed = true;
      }
    }
    cur = std::move(next);
    if (!changed) return cur;
  }
  ADD_FAILURE() << "reference iteration did not converge";
  return cur;
}

class RoutingFixpoint
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(RoutingFixpoint, ThreePhaseMatchesFixpoint) {
  auto [n, seed] = GetParam();
  topo::GeneratorParams p;
  p.num_ases = n;
  p.seed = seed;
  const AsGraph g = topo::generate_topology(p);
  // Check several destinations per graph.
  for (std::uint32_t d = 0; d < g.num_ases(); d += 7) {
    const auto fast = compute_routes(g, AsId(d));
    const auto ref = reference_routes(g, AsId(d));
    for (std::uint32_t i = 0; i < g.num_ases(); ++i) {
      const Route& a = fast.best(AsId(i));
      const Route& b = ref[i];
      ASSERT_EQ(a.cls, b.cls) << "dest " << d << " as " << i;
      if (a.valid()) {
        ASSERT_EQ(a.path_len, b.path_len) << "dest " << d << " as " << i;
        ASSERT_EQ(a.next_hop, b.next_hop) << "dest " << d << " as " << i;
      }
    }
  }
}

TEST_P(RoutingFixpoint, SelectedPathsAreValleyFree) {
  auto [n, seed] = GetParam();
  topo::GeneratorParams p;
  p.num_ases = n;
  p.seed = seed + 1000;
  const AsGraph g = topo::generate_topology(p);
  for (std::uint32_t d = 0; d < g.num_ases(); d += 11) {
    const auto routes = compute_routes(g, AsId(d));
    for (std::uint32_t s = 0; s < g.num_ases(); s += 5) {
      const auto path = as_path(g, routes, AsId(s));
      if (path.size() < 2) continue;
      std::vector<topo::StepDir> steps;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        steps.push_back(topo::step_dir(*g.rel(path[i], path[i + 1])));
      }
      ASSERT_TRUE(topo::is_valley_free(steps))
          << "dest " << d << " src " << s;
      // Path length bookkeeping: hops == path_len.
      ASSERT_EQ(path.size() - 1, routes.best(AsId(s)).path_len);
    }
  }
}

TEST_P(RoutingFixpoint, BestDominatesEveryRibOffer) {
  auto [n, seed] = GetParam();
  topo::GeneratorParams p;
  p.num_ases = n;
  p.seed = seed + 2000;
  const AsGraph g = topo::generate_topology(p);
  for (std::uint32_t d = 0; d < g.num_ases(); d += 13) {
    const auto routes = compute_routes(g, AsId(d));
    for (std::uint32_t s = 0; s < g.num_ases(); s += 3) {
      if (s == d) continue;
      const auto rib = rib_of(g, routes, AsId(s));
      const Route& best = routes.best(AsId(s));
      if (rib.empty()) {
        ASSERT_FALSE(best.valid());
        continue;
      }
      // The converged best equals the top RIB entry.
      ASSERT_TRUE(best.valid());
      ASSERT_EQ(rib.front().cls, best.cls);
      ASSERT_EQ(rib.front().path_len, best.path_len);
      ASSERT_EQ(rib.front().next_hop, best.next_hop);
      for (const auto& offer : rib) {
        ASSERT_FALSE(offer.better_than(best));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GraphSizes, RoutingFixpoint,
    ::testing::Combine(::testing::Values<std::size_t>(20, 60, 150),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

}  // namespace
}  // namespace mifo::bgp
