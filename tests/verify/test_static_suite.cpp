// Unit tests of the two newer static-analysis properties on hand-built
// scenarios: the Gao–Rexford valley-freedom prover (host-origin traffic
// only — eBGP-ingress entries would manufacture false valleys) and the
// reachability/blackhole lint with its concrete witness walks.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "testbed/emulation.hpp"
#include "verify/reachability.hpp"
#include "verify/valley.hpp"

namespace mifo {
namespace {

// The Fig. 2(a) ring with a traffic source attached inside the ring: ASes
// 1,2,3 mutually peer, AS 0 is everyone's customer and hosts `dst`, AS 1
// additionally hosts a source so host-origin traffic enters the ring. Alt
// ports are wired clockwise for `dst`.
struct RingScenario {
  testbed::Emulation em;
  dp::Addr dst = dp::kInvalidAddr;
  RouterId src_router = RouterId::invalid();
};

RingScenario make_ring(bool enforce_tag_check) {
  topo::AsGraph g(4);
  g.add_provider_customer(AsId(1), AsId(0));
  g.add_provider_customer(AsId(2), AsId(0));
  g.add_provider_customer(AsId(3), AsId(0));
  g.add_peering(AsId(1), AsId(2));
  g.add_peering(AsId(2), AsId(3));
  g.add_peering(AsId(3), AsId(1));

  testbed::EmulationBuilder builder(g, std::vector<bool>(4, false));
  const HostId dst_host = builder.attach_host(AsId(0));
  builder.attach_host(AsId(1));
  RingScenario sc;
  sc.em = builder.finalize();
  sc.dst = sc.em.attachment(dst_host).addr;

  const AsId ring[] = {AsId(1), AsId(2), AsId(3)};
  dp::Network& net = *sc.em.net;
  for (int i = 0; i < 3; ++i) {
    const AsId as = ring[i];
    const AsId next = ring[(i + 1) % 3];
    const RouterId r = sc.em.wirings[as.value()].routers.front();
    net.router(r).config().mifo_enabled = true;
    net.router(r).config().enforce_tag_check = enforce_tag_check;
    const auto* eg = sc.em.wirings[as.value()].egress_to(next);
    EXPECT_NE(eg, nullptr);
    net.router(r).fib().set_alt(sc.dst, eg->port);
  }
  sc.src_router = sc.em.wirings[1].routers.front();
  return sc;
}

TEST(ValleyFreedom, RingIsValleyFreeUnderTagCheck) {
  RingScenario sc = make_ring(/*enforce_tag_check=*/true);
  const auto check = verify::check_valley_freedom(*sc.em.net);
  EXPECT_TRUE(check.valley_free);
  EXPECT_TRUE(check.violations.empty());
  EXPECT_GT(check.stats.states, 0u);
}

TEST(ValleyFreedom, UngatedRingDeflectionIsAConcreteValley) {
  RingScenario sc = make_ring(/*enforce_tag_check=*/false);
  const auto check = verify::check_valley_freedom(*sc.em.net);
  ASSERT_FALSE(check.valley_free);
  // At most one counterexample per destination, and only `dst` has
  // deflection edges wired — the source AS's own prefix stays clean.
  ASSERT_EQ(check.violations.size(), 1u);
  const verify::ValleyViolation& v = check.violations.front();
  EXPECT_EQ(v.dst, sc.dst);
  // Host-tagged traffic may legally deflect to the first peer; the valley
  // is the peer-tagged packet's *second* lateral move.
  EXPECT_EQ(v.rel, topo::Rel::Peer);
  ASSERT_GE(v.hops.size(), 2u);
  EXPECT_EQ(v.hops.front().from, sc.src_router);
  EXPECT_NE(v.to_string().find("valley"), std::string::npos);
}

// Customer/provider pair: AS 1 is the provider, AS 0 hosts `dst`, AS 1
// hosts the source. No alternatives programmed — plain BGP forwarding.
struct ChainScenario {
  testbed::Emulation em;
  dp::Addr dst = dp::kInvalidAddr;
  RouterId r0;  ///< AS 0's (destination) router
  RouterId r1;  ///< AS 1's (source) router
};

ChainScenario make_chain() {
  topo::AsGraph g(2);
  g.add_provider_customer(AsId(1), AsId(0));
  testbed::EmulationBuilder builder(g, std::vector<bool>(2, false));
  const HostId dst_host = builder.attach_host(AsId(0));
  builder.attach_host(AsId(1));
  ChainScenario sc;
  sc.em = builder.finalize();
  sc.dst = sc.em.attachment(dst_host).addr;
  sc.r0 = sc.em.wirings[0].routers.front();
  sc.r1 = sc.em.wirings[1].routers.front();
  return sc;
}

TEST(Reachability, HealthyChainIsClean) {
  ChainScenario sc = make_chain();
  const auto check = verify::check_reachability(*sc.em.net);
  EXPECT_TRUE(check.clean);
  EXPECT_TRUE(check.blackholes.empty());
}

TEST(Reachability, EvictedEntryIsANoRouteBlackholeWithWitnessWalk) {
  ChainScenario sc = make_chain();
  // The destination router loses its FIB entry while its provider still
  // forwards to it — the line-4 drop the analysis must witness.
  ASSERT_TRUE(sc.em.net->router(sc.r0).fib().remove(sc.dst));
  const auto check = verify::check_reachability(*sc.em.net);
  ASSERT_FALSE(check.clean);
  ASSERT_EQ(check.blackholes.size(), 1u);
  const verify::Blackhole& bh = check.blackholes.front();
  EXPECT_EQ(bh.dst, sc.dst);
  EXPECT_EQ(bh.router, sc.r0);
  EXPECT_EQ(bh.kind, verify::BlackholeKind::NoRoute);
  // The witness walk arrives from the still-forwarding provider.
  ASSERT_FALSE(bh.hops.empty());
  EXPECT_EQ(bh.hops.front().from, sc.r1);
  EXPECT_EQ(bh.hops.back().to, sc.r0);
  EXPECT_NE(bh.to_string().find("no-route"), std::string::npos);
}

TEST(Reachability, DownedEgressWithoutAlternativeIsDefaultDown) {
  ChainScenario sc = make_chain();
  const auto* eg = sc.em.wirings[1].egress_to(AsId(0));
  ASSERT_NE(eg, nullptr);
  sc.em.net->set_port_up(eg->router, eg->port, false);
  const auto check = verify::check_reachability(*sc.em.net);
  ASSERT_FALSE(check.clean);
  ASSERT_EQ(check.blackholes.size(), 1u);
  const verify::Blackhole& bh = check.blackholes.front();
  EXPECT_EQ(bh.dst, sc.dst);
  EXPECT_EQ(bh.router, sc.r1);
  EXPECT_EQ(bh.kind, verify::BlackholeKind::DefaultDown);
  // The stranded state is itself the ingress: no walk to show.
  EXPECT_TRUE(bh.hops.empty());
  EXPECT_NE(bh.to_string().find("default-down"), std::string::npos);
}

}  // namespace
}  // namespace mifo
