#include "bgp/path_count.hpp"

#include <gtest/gtest.h>

#include "oracle/route_reference.hpp"
#include "topo/analysis.hpp"
#include "topo/generator.hpp"
#include "topo/relationship.hpp"

namespace mifo::bgp {
namespace {

using topo::AsGraph;
using topo::Rel;

/// Brute-force walk enumeration from first principles: DFS over (AS, tag)
/// applying the BGP export check and the Tag-Check rule per hop;
/// non-deployed ASes may only use their default next hop. Exponential, for
/// tiny graphs only.
double brute_count(const AsGraph& g, const DestRoutes& routes,
                   const std::vector<bool>& deployed, AsId cur, bool tag) {
  if (cur == routes.dest()) return 1.0;
  double total = 0.0;
  auto try_step = [&](AsId next, Rel next_rel) {
    // Eq. 3 via the tag.
    if (!topo::check_bit(tag, next_rel)) return;
    // The next AS must export a route for the destination to us.
    if (!rib_route_from(g, routes, cur, next)) return;
    const bool next_tag = (next_rel == Rel::Provider);
    total += brute_count(g, routes, deployed, next, next_tag);
  };
  if (deployed[cur.value()]) {
    for (const auto& nb : g.neighbors(cur)) try_step(nb.as, nb.rel);
  } else {
    const Route& def = routes.best(cur);
    if (def.valid() && def.cls != RouteClass::Self) {
      try_step(def.next_hop, *g.rel(cur, def.next_hop));
    }
  }
  return total;
}

AsGraph fig2a() {
  AsGraph g(4);
  g.add_provider_customer(AsId(1), AsId(0));
  g.add_provider_customer(AsId(2), AsId(0));
  g.add_provider_customer(AsId(3), AsId(0));
  g.add_peering(AsId(1), AsId(2));
  g.add_peering(AsId(2), AsId(3));
  g.add_peering(AsId(3), AsId(1));
  return g;
}

TEST(PathCount, Fig2aFullDeployment) {
  const AsGraph g = fig2a();
  const RouteStore routes(g, AsId(0));
  const auto order = topo::pc_topological_order(g);
  const std::vector<bool> all(4, true);
  const auto counts = count_mifo_paths(g, routes, order, all);
  // From AS1: direct (1-0), via peer 2 (1-2-0), via peer 3 (1-3-0). The
  // two-peer walks (1-2-3-0 etc.) are refused by Eq. 3.
  EXPECT_DOUBLE_EQ(counts.paths_from(AsId(1)), 3.0);
  EXPECT_DOUBLE_EQ(counts.paths_from(AsId(2)), 3.0);
  EXPECT_DOUBLE_EQ(counts.paths_from(AsId(3)), 3.0);
}

TEST(PathCount, ZeroDeploymentIsSinglePath) {
  const AsGraph g = fig2a();
  const RouteStore routes(g, AsId(0));
  const auto order = topo::pc_topological_order(g);
  const std::vector<bool> none(4, false);
  const auto counts = count_mifo_paths(g, routes, order, none);
  for (std::uint32_t i = 1; i <= 3; ++i) {
    EXPECT_DOUBLE_EQ(counts.paths_from(AsId(i)), 1.0);
  }
}

TEST(PathCount, UnreachableIsZero) {
  AsGraph g(3);
  g.add_peering(AsId(0), AsId(1));
  const RouteStore routes(g, AsId(2));
  const auto order = topo::pc_topological_order(g);
  const std::vector<bool> all(3, true);
  const auto counts = count_mifo_paths(g, routes, order, all);
  EXPECT_DOUBLE_EQ(counts.paths_from(AsId(0)), 0.0);
}

class PathCountProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(PathCountProperty, DpMatchesBruteForce) {
  auto [seed, ratio] = GetParam();
  topo::GeneratorParams p;
  p.num_ases = 12;  // brute force is exponential
  p.num_tier1 = 3;
  p.seed = seed;
  const AsGraph g = topo::generate_topology(p);
  const auto order = topo::pc_topological_order(g);

  // Deterministic pseudo-random deployment.
  std::vector<bool> deployed(g.num_ases());
  Rng rng(seed * 31 + 7);
  for (std::size_t i = 0; i < deployed.size(); ++i) {
    deployed[i] = rng.bernoulli(ratio);
  }

  for (std::uint32_t d = 0; d < g.num_ases(); ++d) {
    // The DP consumes the CSR store; the brute-force oracle keeps walking
    // the legacy DestRoutes views (oracle-retention policy).
    const auto oracle = compute_routes(g, AsId(d));
    const RouteStore routes(g, oracle);
    const auto counts = count_mifo_paths(g, routes, order, deployed);
    for (std::uint32_t s = 0; s < g.num_ases(); ++s) {
      if (s == d) continue;
      const double expected =
          brute_count(g, oracle, deployed, AsId(s), true);
      ASSERT_DOUBLE_EQ(counts.paths_from(AsId(s)), expected)
          << "dest " << d << " src " << s << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndRatios, PathCountProperty,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3, 4, 5),
                       ::testing::Values(0.0, 0.3, 0.7, 1.0)));

TEST(PathCountProperty, DeploymentMonotonicity) {
  topo::GeneratorParams p;
  p.num_ases = 80;
  p.seed = 17;
  const topo::AsGraph g = topo::generate_topology(p);
  const auto order = topo::pc_topological_order(g);
  const RouteStore routes(g, AsId(0));

  std::vector<bool> half(g.num_ases(), false);
  for (std::size_t i = 0; i < half.size(); i += 2) half[i] = true;
  std::vector<bool> all(g.num_ases(), true);

  const auto c_none =
      count_mifo_paths(g, routes, order, std::vector<bool>(g.num_ases(), false));
  const auto c_half = count_mifo_paths(g, routes, order, half);
  const auto c_all = count_mifo_paths(g, routes, order, all);
  for (std::uint32_t s = 1; s < g.num_ases(); ++s) {
    EXPECT_LE(c_none.paths_from(AsId(s)), c_half.paths_from(AsId(s)));
    EXPECT_LE(c_half.paths_from(AsId(s)), c_all.paths_from(AsId(s)));
  }
}

TEST(PathCountProperty, ReachableIffPositive) {
  topo::GeneratorParams p;
  p.num_ases = 100;
  p.seed = 23;
  const topo::AsGraph g = topo::generate_topology(p);
  const auto order = topo::pc_topological_order(g);
  const RouteStore routes(g, AsId(5));
  const auto counts = count_mifo_paths(
      g, routes, order, std::vector<bool>(g.num_ases(), true));
  for (std::uint32_t s = 0; s < g.num_ases(); ++s) {
    if (s == 5) continue;
    EXPECT_EQ(routes.best(AsId(s)).valid(),
              counts.paths_from(AsId(s)) > 0.0)
        << "AS " << s;
  }
}

}  // namespace
}  // namespace mifo::bgp
