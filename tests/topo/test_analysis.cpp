#include "topo/analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "topo/generator.hpp"

namespace mifo::topo {
namespace {

AsGraph chain_graph() {
  // 0 provides 1, 1 provides 2 — a 3-level hierarchy.
  AsGraph g(3);
  g.add_provider_customer(AsId(0), AsId(1));
  g.add_provider_customer(AsId(1), AsId(2));
  return g;
}

TEST(Attributes, CountsMatch) {
  AsGraph g(4);
  g.add_provider_customer(AsId(0), AsId(1));
  g.add_provider_customer(AsId(0), AsId(2));
  g.add_peering(AsId(1), AsId(2));
  g.info(AsId(0)).tier = 1;
  g.info(AsId(1)).tier = 2;
  const auto a = attributes(g);
  EXPECT_EQ(a.nodes, 4u);
  EXPECT_EQ(a.links, 3u);
  EXPECT_EQ(a.pc_links, 2u);
  EXPECT_EQ(a.peering_links, 1u);
  EXPECT_EQ(a.tier1, 1u);
  EXPECT_EQ(a.transit, 1u);
  EXPECT_EQ(a.stubs, 2u);
  EXPECT_DOUBLE_EQ(a.avg_degree, 1.5);
  EXPECT_EQ(a.max_degree, 2u);
}

TEST(Attributes, ReportContainsFields) {
  const auto a = attributes(chain_graph());
  const std::string report = attributes_report(a);
  EXPECT_NE(report.find("nodes=3"), std::string::npos);
  EXPECT_NE(report.find("p/c=2"), std::string::npos);
}

TEST(PcAcyclic, ChainIsAcyclic) { EXPECT_TRUE(is_pc_acyclic(chain_graph())); }

TEST(PcAcyclic, DetectsCycle) {
  AsGraph g(3);
  g.add_provider_customer(AsId(0), AsId(1));
  g.add_provider_customer(AsId(1), AsId(2));
  g.add_provider_customer(AsId(2), AsId(0));  // provider cycle
  EXPECT_FALSE(is_pc_acyclic(g));
}

TEST(PcAcyclic, PeeringDoesNotCreateCycles) {
  AsGraph g(3);
  g.add_peering(AsId(0), AsId(1));
  g.add_peering(AsId(1), AsId(2));
  g.add_peering(AsId(2), AsId(0));
  EXPECT_TRUE(is_pc_acyclic(g));
}

TEST(TopologicalOrder, ProvidersBeforeCustomers) {
  const AsGraph g = chain_graph();
  const auto order = pc_topological_order(g);
  ASSERT_EQ(order.size(), 3u);
  auto pos = [&order](AsId as) {
    return std::find(order.begin(), order.end(), as) - order.begin();
  };
  EXPECT_LT(pos(AsId(0)), pos(AsId(1)));
  EXPECT_LT(pos(AsId(1)), pos(AsId(2)));
}

TEST(TopologicalOrder, GeneratedTopologyRespectsAllEdges) {
  GeneratorParams p;
  p.num_ases = 300;
  const AsGraph g = generate_topology(p);
  const auto order = pc_topological_order(g);
  std::vector<std::size_t> pos(g.num_ases());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i].value()] = i;
  for (std::uint32_t i = 0; i < g.num_ases(); ++i) {
    for (const auto& nb : g.neighbors(AsId(i))) {
      if (nb.rel == Rel::Customer) {
        EXPECT_LT(pos[i], pos[nb.as.value()]);
      }
    }
  }
}

TEST(Connectivity, DisconnectedDetected) {
  AsGraph g(4);
  g.add_peering(AsId(0), AsId(1));
  g.add_peering(AsId(2), AsId(3));
  EXPECT_FALSE(is_connected(g));
}

TEST(Connectivity, SingleNodeIsConnected) {
  AsGraph g(1);
  EXPECT_TRUE(is_connected(g));
}

TEST(Degrees, MatchesGraph) {
  const AsGraph g = chain_graph();
  const auto d = degrees(g);
  EXPECT_EQ(d, (std::vector<std::size_t>{1, 2, 1}));
}

}  // namespace
}  // namespace mifo::topo
