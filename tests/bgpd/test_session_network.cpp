// The protocol engine must converge to exactly the analytic Gao–Rexford
// fixpoint of src/bgp/ — the strongest cross-validation in the repo: two
// completely different derivations (message passing vs three BFS phases) of
// the same converged Internet.

#include <gtest/gtest.h>

#include "bgp/routing.hpp"
#include "bgpd/session_network.hpp"
#include "oracle/route_reference.hpp"
#include "topo/generator.hpp"

namespace mifo::bgpd {
namespace {

using topo::AsGraph;

TEST(SessionNetwork, TinyTriangleConverges) {
  AsGraph g(3);
  g.add_provider_customer(AsId(0), AsId(1));
  g.add_peering(AsId(1), AsId(2));
  SessionNetwork net(g);
  net.originate_all();
  const std::size_t msgs = net.run_to_convergence();
  EXPECT_GT(msgs, 0u);
  EXPECT_TRUE(net.converged());
  // 0 reaches 1 (customer) and 2 (via 1? no: 1's best for 2 is a peer
  // route, not exported to provider 0).
  EXPECT_TRUE(net.speaker(AsId(0)).best(AsId(1)).valid());
  EXPECT_FALSE(net.speaker(AsId(0)).best(AsId(2)).valid());
  // 2 reaches 0 via its peer's customer? No — peer 1 exports only customer
  // routes, and 0 is 1's provider. Unreachable both ways.
  EXPECT_FALSE(net.speaker(AsId(2)).best(AsId(0)).valid());
  // 2 reaches 1 directly.
  EXPECT_EQ(net.speaker(AsId(2)).best(AsId(1)).cls, bgp::RouteClass::Peer);
}

class ConvergenceCrossValidation
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(ConvergenceCrossValidation, ProtocolMatchesAnalyticFixpoint) {
  auto [n, seed] = GetParam();
  topo::GeneratorParams p;
  p.num_ases = n;
  p.seed = seed;
  const AsGraph g = topo::generate_topology(p);

  SessionNetwork net(g);
  net.originate_all();
  net.run_to_convergence();

  for (std::uint32_t d = 0; d < g.num_ases(); d += 5) {
    const auto analytic = bgp::compute_routes(g, AsId(d));
    for (std::uint32_t s = 0; s < g.num_ases(); ++s) {
      if (s == d) continue;
      const bgp::Route a = analytic.best(AsId(s));
      const bgp::Route b = net.speaker(AsId(s)).best(AsId(d));
      ASSERT_EQ(a.valid(), b.valid()) << "dest " << d << " as " << s;
      if (a.valid()) {
        ASSERT_EQ(a.cls, b.cls) << "dest " << d << " as " << s;
        ASSERT_EQ(a.path_len, b.path_len) << "dest " << d << " as " << s;
        ASSERT_EQ(a.next_hop, b.next_hop) << "dest " << d << " as " << s;
        // The protocol's full path matches the analytic chain.
        ASSERT_EQ(net.speaker(AsId(s)).best_path(AsId(d)),
                  bgp::as_path(g, analytic, AsId(s)));
      }
    }
  }
}

TEST_P(ConvergenceCrossValidation, RibInMatchesAnalyticRibView) {
  auto [n, seed] = GetParam();
  topo::GeneratorParams p;
  p.num_ases = n;
  p.seed = seed + 500;
  const AsGraph g = topo::generate_topology(p);
  SessionNetwork net(g);
  net.originate_all();
  net.run_to_convergence();

  for (std::uint32_t d = 0; d < g.num_ases(); d += 17) {
    const auto analytic = bgp::compute_routes(g, AsId(d));
    for (std::uint32_t s = 0; s < g.num_ases(); s += 7) {
      if (s == d) continue;
      const auto protocol_rib = net.speaker(AsId(s)).rib_in(AsId(d));
      const auto analytic_rib = bgp::rib_of(g, analytic, AsId(s));
      ASSERT_EQ(protocol_rib.size(), analytic_rib.size())
          << "dest " << d << " as " << s;
      for (std::size_t i = 0; i < protocol_rib.size(); ++i) {
        ASSERT_EQ(protocol_rib[i].as_route(), analytic_rib[i]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, ConvergenceCrossValidation,
    ::testing::Combine(::testing::Values<std::size_t>(25, 60, 120),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

TEST(SessionNetwork, WithdrawalDrainsTheRoute) {
  topo::GeneratorParams p;
  p.num_ases = 80;
  p.seed = 4;
  const AsGraph g = topo::generate_topology(p);
  SessionNetwork net(g);
  net.originate_all();
  net.run_to_convergence();

  const AsId victim(42);
  std::size_t holders_before = 0;
  for (std::uint32_t s = 0; s < g.num_ases(); ++s) {
    if (s != victim.value() && net.speaker(AsId(s)).best(victim).valid()) {
      ++holders_before;
    }
  }
  ASSERT_GT(holders_before, 0u);

  net.withdraw(victim);
  net.run_to_convergence();
  for (std::uint32_t s = 0; s < g.num_ases(); ++s) {
    if (s == victim.value()) continue;
    EXPECT_FALSE(net.speaker(AsId(s)).best(victim).valid()) << "AS " << s;
  }
}

TEST(SessionNetwork, ReOriginationAfterWithdrawalRestoresRoutes) {
  topo::GeneratorParams p;
  p.num_ases = 60;
  p.seed = 9;
  const AsGraph g = topo::generate_topology(p);
  SessionNetwork net(g);
  net.originate_all();
  net.run_to_convergence();
  const AsId victim(17);
  net.withdraw(victim);
  net.run_to_convergence();
  net.originate(victim);
  net.run_to_convergence();

  const auto analytic = bgp::compute_routes(g, victim);
  for (std::uint32_t s = 0; s < g.num_ases(); ++s) {
    if (s == victim.value()) continue;
    const bgp::Route a = analytic.best(AsId(s));
    const bgp::Route b = net.speaker(AsId(s)).best(victim);
    ASSERT_EQ(a.valid(), b.valid()) << "AS " << s;
    if (a.valid()) {
      ASSERT_EQ(a.next_hop, b.next_hop) << "AS " << s;
      ASSERT_EQ(a.path_len, b.path_len) << "AS " << s;
    }
  }
}

TEST(SessionNetwork, MessageComplexityIsSane) {
  topo::GeneratorParams p;
  p.num_ases = 100;
  p.seed = 2;
  const AsGraph g = topo::generate_topology(p);
  SessionNetwork net(g);
  net.originate_all();
  const std::size_t msgs = net.run_to_convergence();
  // Rough envelope: every prefix crosses each adjacency a small constant
  // number of times under deterministic FIFO processing.
  EXPECT_LT(msgs, 40 * g.num_ases() * g.num_adjacencies());
  EXPECT_GT(msgs, g.num_adjacencies());
}

}  // namespace
}  // namespace mifo::bgpd
