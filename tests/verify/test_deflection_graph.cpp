// Unit tests of the static verifier: the deflection-graph loop-freedom
// check and the FIB/RIB consistency lints, on hand-built Fig. 2 scenarios.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "testbed/emulation.hpp"
#include "verify/deflection_graph.hpp"
#include "verify/lint.hpp"

namespace mifo {
namespace {

// Fig. 2(a) shape: ASes 1,2,3 mutually peer, AS 0 is everyone's customer,
// alt ports wired clockwise. Returns the emulation with dst attached at
// AS 0 and the ring configured; `enforce` controls the Tag-Check knob.
struct RingScenario {
  testbed::Emulation em;
  dp::Addr dst = dp::kInvalidAddr;
  std::set<std::uint32_t> ring_routers;
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
  RingScenario sc;
  sc.em = builder.finalize();
  sc.dst = sc.em.attachment(dst_host).addr;

  const AsId ring[] = {AsId(1), AsId(2), AsId(3)};
  for (int i = 0; i < 3; ++i) {
    const AsId as = ring[i];
    const AsId next = ring[(i + 1) % 3];
    const RouterId r = sc.em.wirings[as.value()].routers.front();
    dp::Network& net = *sc.em.net;
    net.router(r).config().mifo_enabled = true;
    net.router(r).config().enforce_tag_check = enforce_tag_check;
    const auto* eg = sc.em.wirings[as.value()].egress_to(next);
    EXPECT_NE(eg, nullptr);
    net.router(r).fib().set_alt(sc.dst, eg->port);
    sc.ring_routers.insert(r.value());
  }
  return sc;
}

TEST(DeflectionGraph, Fig2aRingIsLoopFreeUnderTagCheck) {
  RingScenario sc = make_ring(/*enforce_tag_check=*/true);
  const auto check = verify::check_loop_freedom(*sc.em.net);
  EXPECT_TRUE(check.loop_free);
  EXPECT_TRUE(check.cycles.empty());
  EXPECT_EQ(check.stats.destinations, 1u);
  EXPECT_GT(check.stats.states, 0u);
  EXPECT_GT(check.stats.edges, 0u);
}

TEST(DeflectionGraph, Fig2aRingCyclesWithoutTagCheck) {
  RingScenario sc = make_ring(/*enforce_tag_check=*/false);
  const auto check = verify::check_loop_freedom(*sc.em.net);
  ASSERT_FALSE(check.loop_free);
  ASSERT_EQ(check.cycles.size(), 1u);
  const verify::Cycle& cycle = check.cycles.front();
  EXPECT_EQ(cycle.dst, sc.dst);
  // The counterexample is exactly the clockwise peering ring, every hop a
  // (no-longer-gated) eBGP deflection.
  std::set<std::uint32_t> seen;
  for (const verify::Hop& h : cycle.hops) {
    EXPECT_EQ(h.kind, verify::HopKind::AltEbgp);
    seen.insert(h.from.value());
  }
  EXPECT_EQ(seen, sc.ring_routers);
  EXPECT_EQ(cycle.hops.front().from, cycle.hops.back().to);
  EXPECT_NE(cycle.to_string().find("cycle:"), std::string::npos);
}

// Fig. 2(b) shape: AS X has two border routers; the alternative hands the
// packet to the iBGP peer, whose line-11 return detection must keep the
// deflection graph acyclic.
struct IbgpScenario {
  testbed::Emulation em;
  dp::Addr dst = dp::kInvalidAddr;
  RouterId r1;  ///< X's border towards the default next hop
  RouterId r2;  ///< X's border towards the alternative
};

IbgpScenario make_ibgp() {
  topo::AsGraph g(4);
  const AsId x(0), y(1), z(2), d(3);
  g.add_peering(x, y);
  g.add_peering(x, z);
  g.add_provider_customer(y, d);
  g.add_provider_customer(z, d);

  std::vector<bool> expand(4, false);
  expand[x.value()] = true;
  testbed::EmulationBuilder builder(g, expand);
  builder.attach_host(x);
  const HostId dst_host = builder.attach_host(d);
  IbgpScenario sc;
  sc.em = builder.finalize();
  sc.dst = sc.em.attachment(dst_host).addr;
  sc.r1 = sc.em.wirings[x.value()].egress_to(y)->router;
  sc.r2 = sc.em.wirings[x.value()].egress_to(z)->router;
  dp::Network& net = *sc.em.net;
  for (const RouterId r : sc.em.wirings[x.value()].routers) {
    net.router(r).config().mifo_enabled = true;
  }
  const auto& wx = sc.em.wirings[x.value()];
  net.router(sc.r1).fib().set_alt(sc.dst, wx.intra_port(sc.r1, sc.r2));
  net.router(sc.r2).fib().set_alt(sc.dst, wx.egress_to(z)->port);
  return sc;
}

TEST(DeflectionGraph, Fig2bReturnDetectionKeepsIbgpHandoffAcyclic) {
  IbgpScenario sc = make_ibgp();
  const auto check = verify::check_loop_freedom(*sc.em.net);
  EXPECT_TRUE(check.loop_free) << check.cycles.front().to_string();
}

TEST(DeflectionGraph, Fig2bAltPointingBackAtSenderCycles) {
  IbgpScenario sc = make_ibgp();
  // Corrupt r2: its alternative now hands the packet straight back to r1.
  // r2 detects the return (sender == default next hop) and is forced onto
  // this alternative — an iBGP ping-pong the verifier must surface.
  const auto& wx = sc.em.wirings[0];
  sc.em.net->router(sc.r2).fib().set_alt(sc.dst,
                                         wx.intra_port(sc.r2, sc.r1));
  const auto check = verify::check_loop_freedom(*sc.em.net);
  ASSERT_FALSE(check.loop_free);
  const verify::Cycle& cycle = check.cycles.front();
  std::set<std::uint32_t> seen;
  bool saw_ibgp_hop = false;
  for (const verify::Hop& h : cycle.hops) {
    seen.insert(h.from.value());
    saw_ibgp_hop |= h.kind == verify::HopKind::AltIbgp;
  }
  EXPECT_TRUE(saw_ibgp_hop);
  EXPECT_EQ(seen, (std::set<std::uint32_t>{sc.r1.value(), sc.r2.value()}));
}

// An alternative the RIB never advertised can loop even with the Tag-Check
// fully enforced: deflect to a customer whose own default climbs straight
// back through us. Eq. 3 admits every customer-bound deflection; it is the
// Gao–Rexford export rule (no provider route is exported upward) that rules
// this state out — which is precisely why alt_port entries must be
// RIB-backed, and why the verifier checks installed state, not the paper's
// assumptions.
TEST(DeflectionGraph, RibUnbackedCustomerAltCycles) {
  topo::AsGraph g(3);
  g.add_provider_customer(AsId(1), AsId(0));  // dst below AS1
  g.add_provider_customer(AsId(1), AsId(2));  // AS2: stub customer of AS1
  testbed::EmulationBuilder builder(g, std::vector<bool>(3, false));
  const HostId dst_host = builder.attach_host(AsId(0));
  auto em = builder.finalize();
  const dp::Addr dst = em.attachment(dst_host).addr;
  dp::Network& net = *em.net;

  const RouterId r1 = em.wirings[1].routers.front();
  const RouterId r2 = em.wirings[2].routers.front();
  net.router(r1).config().mifo_enabled = true;  // Tag-Check stays ON
  const auto* eg = em.wirings[1].egress_to(AsId(2));
  ASSERT_NE(eg, nullptr);
  net.router(r1).fib().set_alt(dst, eg->port);

  const auto check = verify::check_loop_freedom(*em.net);
  ASSERT_FALSE(check.loop_free);
  std::set<std::uint32_t> seen;
  for (const verify::Hop& h : check.cycles.front().hops) {
    seen.insert(h.from.value());
  }
  EXPECT_EQ(seen, (std::set<std::uint32_t>{r1.value(), r2.value()}));

  // The lints pinpoint the root cause: AS2 exports nothing for this prefix.
  std::vector<std::pair<dp::Addr, AsId>> owners{{dst, AsId(0)}};
  const auto issues = verify::lint_deployment(net, g, em.daemons, owners);
  ASSERT_FALSE(issues.empty());
  EXPECT_TRUE(std::any_of(issues.begin(), issues.end(), [](const auto& i) {
    return i.kind == verify::LintKind::AltMissingFromRib;
  }));
}

TEST(DeflectionGraph, FibDestinationsCollectsHostPrefixes) {
  IbgpScenario sc = make_ibgp();
  const auto dests = verify::fib_destinations(sc.em.net->routers());
  // Two attached hosts -> two prefixes, ascending.
  ASSERT_EQ(dests.size(), 2u);
  EXPECT_TRUE(std::is_sorted(dests.begin(), dests.end()));
  EXPECT_TRUE(std::find(dests.begin(), dests.end(), sc.dst) != dests.end());
}

TEST(Lint, DaemonProgrammedDeploymentIsClean) {
  IbgpScenario sc = make_ibgp();
  dp::Network& net = *sc.em.net;
  // Let the daemons program alt state the production way.
  for (const auto& daemon : sc.em.daemons) daemon->tick(net, 0.0);
  std::vector<std::pair<dp::Addr, AsId>> owners;
  for (const auto& att : sc.em.hosts) owners.emplace_back(att.addr, att.as);
  topo::AsGraph g(4);  // rebuild the same graph for the lint input
  g.add_peering(AsId(0), AsId(1));
  g.add_peering(AsId(0), AsId(2));
  g.add_provider_customer(AsId(1), AsId(3));
  g.add_provider_customer(AsId(2), AsId(3));
  const auto issues = verify::lint_deployment(net, g, sc.em.daemons, owners);
  for (const auto& issue : issues) ADD_FAILURE() << issue.to_string();
}

TEST(Lint, AltEqualToDefaultPortIsFlagged) {
  IbgpScenario sc = make_ibgp();
  dp::Network& net = *sc.em.net;
  const auto fe = net.router(sc.r1).fib().lookup(sc.dst);
  ASSERT_TRUE(fe.has_value());
  net.router(sc.r1).fib().set_alt(sc.dst, fe->out_port);
  topo::AsGraph g(4);
  g.add_peering(AsId(0), AsId(1));
  g.add_peering(AsId(0), AsId(2));
  g.add_provider_customer(AsId(1), AsId(3));
  g.add_provider_customer(AsId(2), AsId(3));
  std::vector<std::pair<dp::Addr, AsId>> owners{{sc.dst, AsId(3)}};
  const auto issues = verify::lint_deployment(net, g, sc.em.daemons, owners);
  EXPECT_TRUE(std::any_of(issues.begin(), issues.end(), [&](const auto& i) {
    return i.kind == verify::LintKind::AltEqualsDefault &&
           i.router == sc.r1 && i.dst == sc.dst;
  }));
}

TEST(Lint, CorruptedDaemonRibKnowledgeIsAnExportViolation) {
  // AS2 and AS3 are both customers of AS1; AS2—AS3 peer. AS3's best route
  // towards AS0 (below AS1) is a provider route, which Gao–Rexford never
  // exports across a peering — a daemon claiming otherwise is corrupt.
  topo::AsGraph g(4);
  g.add_provider_customer(AsId(1), AsId(0));
  g.add_provider_customer(AsId(1), AsId(2));
  g.add_provider_customer(AsId(1), AsId(3));
  g.add_peering(AsId(2), AsId(3));
  testbed::EmulationBuilder builder(g, std::vector<bool>(4, false));
  const HostId dst_host = builder.attach_host(AsId(0));
  auto em = builder.finalize();
  const dp::Addr dst = em.attachment(dst_host).addr;

  core::PrefixRoutes corrupt;
  corrupt.prefix = dst;
  corrupt.default_neighbor = AsId(1);
  corrupt.alternatives = {AsId(3)};  // AS3 would never export this route
  std::vector<std::unique_ptr<core::MifoDaemon>> daemons;
  daemons.push_back(std::make_unique<core::MifoDaemon>(
      em.daemons[2]->wiring(), std::vector<core::PrefixRoutes>{corrupt}));

  std::vector<std::pair<dp::Addr, AsId>> owners{{dst, AsId(0)}};
  const auto issues = verify::lint_deployment(*em.net, g, daemons, owners);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues.front().kind, verify::LintKind::ExportViolation);
  EXPECT_EQ(issues.front().as, AsId(2));
}

}  // namespace
}  // namespace mifo
