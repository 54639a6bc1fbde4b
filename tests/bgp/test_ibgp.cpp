#include "bgp/ibgp.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "topo/generator.hpp"

namespace mifo::bgp {
namespace {

topo::AsGraph triangle() {
  topo::AsGraph g(3);
  g.add_provider_customer(AsId(0), AsId(1));
  g.add_provider_customer(AsId(0), AsId(2));
  g.add_peering(AsId(1), AsId(2));
  return g;
}

TEST(IbgpPlan, CollapsedAsGetsOneRouter) {
  const auto g = triangle();
  const IbgpPlan plan(g, std::vector<bool>(3, false));
  EXPECT_EQ(plan.num_routers(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(plan.routers_of(AsId(i)).size(), 1u);
    EXPECT_FALSE(plan.expanded(AsId(i)));
  }
}

TEST(IbgpPlan, ExpandedAsGetsRouterPerAdjacency) {
  const auto g = triangle();
  std::vector<bool> expand{true, false, false};
  const IbgpPlan plan(g, expand);
  // AS0 has 2 adjacencies -> 2 routers; AS1/AS2 collapse.
  EXPECT_EQ(plan.routers_of(AsId(0)).size(), 2u);
  EXPECT_EQ(plan.num_routers(), 4u);
  EXPECT_TRUE(plan.expanded(AsId(0)));
}

TEST(IbgpPlan, BorderTowardsResolvesCorrectRouter) {
  const auto g = triangle();
  const IbgpPlan plan(g, std::vector<bool>{true, false, false});
  const RouterId to1 = plan.border_towards(AsId(0), AsId(1));
  const RouterId to2 = plan.border_towards(AsId(0), AsId(2));
  EXPECT_NE(to1, to2);
  EXPECT_EQ(plan.router(to1).external_neighbor, AsId(1));
  EXPECT_EQ(plan.router(to2).external_neighbor, AsId(2));
  // Collapsed AS: any neighbor resolves to the single router.
  EXPECT_EQ(plan.border_towards(AsId(1), AsId(0)),
            plan.border_towards(AsId(1), AsId(2)));
}

TEST(IbgpPlan, RouterIdsAreDenseAndConsistent) {
  topo::GeneratorParams p;
  p.num_ases = 100;
  const auto g = topo::generate_topology(p);
  // Expand the tier-1s, as the paper does.
  std::vector<bool> expand(g.num_ases(), false);
  for (std::uint32_t i = 0; i < g.num_ases(); ++i) {
    expand[i] = g.info(AsId(i)).tier == 1;
  }
  const IbgpPlan plan(g, expand);
  std::size_t counted = 0;
  for (std::uint32_t i = 0; i < g.num_ases(); ++i) {
    const auto& rs = plan.routers_of(AsId(i));
    counted += rs.size();
    if (expand[i]) {
      EXPECT_EQ(rs.size(), std::max<std::size_t>(1, g.degree(AsId(i))));
    } else {
      EXPECT_EQ(rs.size(), 1u);
    }
    for (const RouterId r : rs) {
      EXPECT_EQ(plan.router(r).as, AsId(i));
      EXPECT_EQ(plan.router(r).id, r);
    }
  }
  EXPECT_EQ(counted, plan.num_routers());
}

}  // namespace
}  // namespace mifo::bgp
