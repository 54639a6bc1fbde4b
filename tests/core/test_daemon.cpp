#include "core/daemon.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "obs/trace.hpp"

namespace mifo::core {
namespace {

// AS 0 with three border routers: Ra faces AS1 (default), Rb faces AS2,
// Rc faces AS3 (both alternatives). Full iBGP mesh.
struct DaemonFixture : ::testing::Test {
  dp::Network net;
  RouterId ra, rb, rc, x1, x2, x3;
  PortId e1, e2, e3;  // eBGP egress ports on ra/rb/rc
  AsWiring wiring;
  static constexpr dp::Addr kPrefix = 0x80000123;

  void SetUp() override {
    ra = net.add_router(AsId(0));
    rb = net.add_router(AsId(0));
    rc = net.add_router(AsId(0));
    x1 = net.add_router(AsId(1));
    x2 = net.add_router(AsId(2));
    x3 = net.add_router(AsId(3));
    e1 = net.connect_ebgp(ra, x1, topo::Rel::Peer).first;
    e2 = net.connect_ebgp(rb, x2, topo::Rel::Peer).first;
    e3 = net.connect_ebgp(rc, x3, topo::Rel::Peer).first;

    wiring.as = AsId(0);
    wiring.routers = {ra, rb, rc};
    wiring.egresses = {{AsId(1), ra, e1, topo::Rel::Peer},
                       {AsId(2), rb, e2, topo::Rel::Peer},
                       {AsId(3), rc, e3, topo::Rel::Peer}};
    for (auto [a, b] : {std::pair{ra, rb}, {ra, rc}, {rb, rc}}) {
      const auto [pa, pb] = net.connect_ibgp(a, b);
      wiring.intra.push_back({a, b, pa});
      wiring.intra.push_back({b, a, pb});
    }

    // Default route for the prefix: egress via ra/e1.
    net.router(ra).fib().set_route(kPrefix, e1);
    net.router(rb).fib().set_route(kPrefix, wiring.intra_port(rb, ra));
    net.router(rc).fib().set_route(kPrefix, wiring.intra_port(rc, ra));
  }

  std::vector<PrefixRoutes> prefixes() {
    return {PrefixRoutes{kPrefix, AsId(1), {AsId(2), AsId(3)}}};
  }

  void load_egress(PortId port, RouterId router, std::uint64_t bytes) {
    net.router(router).port(port).bytes_sent_total += bytes;
  }
};

TEST_F(DaemonFixture, WiringLookupHelpers) {
  EXPECT_EQ(wiring.egress_to(AsId(2))->router, rb);
  EXPECT_EQ(wiring.egress_to(AsId(9)), nullptr);
  EXPECT_TRUE(wiring.intra_port(ra, rb).valid());
  EXPECT_FALSE(wiring.intra_port(ra, ra).valid());
}

TEST_F(DaemonFixture, ElectsAlternativeAndProgramsAllFibs) {
  MifoDaemon daemon(wiring, prefixes());
  daemon.tick(net, 0.0);
  // Ties broken towards the lower AS id: AS2.
  EXPECT_EQ(daemon.elected_alt(kPrefix), AsId(2));
  // rb (the alt egress) points at its own eBGP port; others at intra links
  // towards rb.
  EXPECT_EQ(net.router(rb).fib().lookup(kPrefix)->alt_port, e2);
  EXPECT_EQ(net.router(ra).fib().lookup(kPrefix)->alt_port,
            wiring.intra_port(ra, rb));
  EXPECT_EQ(net.router(rc).fib().lookup(kPrefix)->alt_port,
            wiring.intra_port(rc, rb));
}

TEST_F(DaemonFixture, TickAdvertisesEachEgressSpareToTheTracer) {
  // Section III-C's spare-capacity exchange, made visible: one SpareAdvert
  // per egress link per tick, outside any flow.
  obs::Tracer tracer(16);
  net.set_tracer(&tracer);
  MifoDaemon daemon(wiring, prefixes());
  daemon.tick(net, 0.01);
  const std::vector<obs::TraceEvent> evs = tracer.events();
  ASSERT_EQ(evs.size(), wiring.egresses.size());
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].kind, obs::TraceKind::SpareAdvert);
    EXPECT_EQ(evs[i].flow, obs::kNoTraceFlow);
    EXPECT_DOUBLE_EQ(evs[i].t, 0.01);
    EXPECT_EQ(evs[i].router, wiring.egresses[i].router.value());
    EXPECT_EQ(evs[i].port, wiring.egresses[i].port.value());
    EXPECT_GT(evs[i].value, 0.0);  // idle links: all spare
  }
}

TEST_F(DaemonFixture, EqualSpareElectsLowestIdWhateverTheOrder) {
  // The install pass lists alternatives in neighbor order, not sorted: on
  // equal spare capacity the election must still pick the lowest AS id.
  for (const auto& order : {std::vector<AsId>{AsId(2), AsId(3)},
                            std::vector<AsId>{AsId(3), AsId(2)}}) {
    MifoDaemon daemon(wiring, {PrefixRoutes{kPrefix, AsId(1), order}});
    daemon.tick(net, 0.0);  // both alternatives idle: equal spare
    EXPECT_EQ(daemon.elected_alt(kPrefix), AsId(2));
    EXPECT_EQ(net.router(rb).fib().lookup(kPrefix)->alt_port, e2);
    EXPECT_EQ(net.router(rc).fib().lookup(kPrefix)->alt_port,
              wiring.intra_port(rc, rb));
  }
}

TEST_F(DaemonFixture, GreedyPrefersMostSpareCapacity) {
  MifoDaemon daemon(wiring, prefixes());
  daemon.tick(net, 0.0);  // primes the monitor
  // Load AS2's egress at ~800 Mbps over the next window; AS3 stays idle.
  load_egress(e2, rb, 10'000'000);
  daemon.tick(net, 0.1);
  EXPECT_EQ(daemon.elected_alt(kPrefix), AsId(3));
  EXPECT_EQ(net.router(rc).fib().lookup(kPrefix)->alt_port, e3);
  EXPECT_EQ(net.router(ra).fib().lookup(kPrefix)->alt_port,
            wiring.intra_port(ra, rc));
}

TEST_F(DaemonFixture, ReElectionFollowsLoadShifts) {
  MifoDaemon daemon(wiring, prefixes());
  daemon.tick(net, 0.0);
  load_egress(e2, rb, 10'000'000);
  daemon.tick(net, 0.1);
  ASSERT_EQ(daemon.elected_alt(kPrefix), AsId(3));
  // Load moves to AS3's egress; AS2 drains.
  load_egress(e3, rc, 10'000'000);
  daemon.tick(net, 0.2);
  EXPECT_EQ(daemon.elected_alt(kPrefix), AsId(2));
}

TEST_F(DaemonFixture, PrefixWithoutAlternativesLeftAlone) {
  std::vector<PrefixRoutes> pr{PrefixRoutes{kPrefix, AsId(1), {}}};
  MifoDaemon daemon(wiring, pr);
  daemon.tick(net, 0.0);
  EXPECT_FALSE(daemon.elected_alt(kPrefix).valid());
  EXPECT_FALSE(net.router(ra).fib().lookup(kPrefix)->alt_port.valid());
}

TEST_F(DaemonFixture, LocalPrefixNeverGetsAltPort) {
  std::vector<PrefixRoutes> pr{
      PrefixRoutes{kPrefix, AsId::invalid(), {AsId(2)}}};
  MifoDaemon daemon(wiring, pr);
  daemon.tick(net, 0.0);
  EXPECT_FALSE(net.router(ra).fib().lookup(kPrefix)->alt_port.valid());
}

TEST_F(DaemonFixture, TickRunsFlowReevaluation) {
  // A pin on ra with idle egresses must be released by the tick.
  net.router(ra).config().mifo_enabled = true;
  net.router(ra).fib().set_alt(kPrefix, wiring.intra_port(ra, rb));
  // Congest, then handle one packet to create a pin.
  for (int i = 0; i < 61; ++i) {
    dp::Packet filler;
    filler.dst = kPrefix;
    filler.flow = FlowId(99);
    filler.size_bytes = 1000;
    net.transmit_router(ra, e1, filler);
  }
  dp::Packet p;
  p.dst = kPrefix;
  p.flow = FlowId(7);
  p.size_bytes = 1000;
  p.mifo_tag = true;
  net.router(ra).handle_packet(net, p, PortId::invalid());
  ASSERT_EQ(net.router(ra).pinned_alt_flows(), 1u);

  MifoDaemon daemon(wiring, prefixes());
  daemon.tick(net, 0.0);  // prime: rates measure 0 -> egresses idle
  EXPECT_EQ(net.router(ra).pinned_alt_flows(), 0u);
}

TEST_F(DaemonFixture, FlowReevaluationReadsEachRoutersOwnEgresses) {
  // rb's pin must follow rb's own egress (e2), not ra's (e1): both sit on
  // port 0 of their router.
  ASSERT_EQ(e1, e2);
  MifoDaemon daemon(wiring, prefixes());
  daemon.tick(net, 0.0);  // primes the monitor, programs rb's alt (e2)
  ASSERT_EQ(net.router(rb).fib().lookup(kPrefix)->alt_port, e2);
  net.router(rb).config().mifo_enabled = true;
  // Congest rb's default (its intra link to ra) so a packet pins to e2.
  for (int i = 0; i < 61; ++i) {
    dp::Packet filler;
    filler.dst = kPrefix;
    filler.flow = FlowId(99);
    filler.size_bytes = 1000;
    net.transmit_router(rb, wiring.intra_port(rb, ra), filler);
  }
  dp::Packet p;
  p.dst = kPrefix;
  p.flow = FlowId(7);
  p.size_bytes = 1000;
  p.mifo_tag = true;
  net.router(rb).handle_packet(net, p, PortId::invalid());
  ASSERT_EQ(net.router(rb).pinned_alt_flows(), 1u);

  // rb's own egress busy (~800 Mbps of 1 Gbps): the pin stays.
  load_egress(e2, rb, 10'000'000);
  daemon.tick(net, 0.1);
  EXPECT_EQ(net.router(rb).pinned_alt_flows(), 1u);
  // Now only ra's egress is busy: rb's flows return to the default.
  load_egress(e1, ra, 10'000'000);
  daemon.tick(net, 0.2);
  EXPECT_EQ(net.router(rb).pinned_alt_flows(), 0u);
}

}  // namespace
}  // namespace mifo::core
