// Packet-level reproductions of the paper's Fig. 2 failure scenarios,
// demonstrating that the implemented mechanisms (Tag-Check bit, IP-in-IP
// returned-packet rule) cut the loops the paper identifies.

#include <gtest/gtest.h>

#include "testbed/emulation.hpp"

namespace mifo {
namespace {

using dp::Packet;

// Fig. 2(a) at packet level: ASes 1,2,3 mutually peer, AS 0 is everyone's
// customer. All alt ports are programmed clockwise (1->2->3->1). With every
// default congested, a deflected packet must be dropped by the Tag-Check at
// the second peer rather than looping.
TEST(LoopScenarios, Fig2aTagCheckCutsDataPlaneLoop) {
  topo::AsGraph g(4);
  g.add_provider_customer(AsId(1), AsId(0));
  g.add_provider_customer(AsId(2), AsId(0));
  g.add_provider_customer(AsId(3), AsId(0));
  g.add_peering(AsId(1), AsId(2));
  g.add_peering(AsId(2), AsId(3));
  g.add_peering(AsId(3), AsId(1));

  testbed::EmulationBuilder builder(g, std::vector<bool>(4, false));
  const HostId dst_host = builder.attach_host(AsId(0));
  const HostId src_host = builder.attach_host(AsId(1));
  auto em = builder.finalize();
  dp::Network& net = *em.net;
  const dp::Addr dst = em.attachment(dst_host).addr;
  (void)src_host;

  // Enable MIFO everywhere with faithful line-20 drops and program the
  // clockwise alternatives by hand (bypassing the daemon's greedy choice).
  const AsId ring[] = {AsId(1), AsId(2), AsId(3)};
  for (int i = 0; i < 3; ++i) {
    const AsId as = ring[i];
    const AsId next = ring[(i + 1) % 3];
    const RouterId r = em.wirings[as.value()].routers.front();
    net.router(r).config().mifo_enabled = true;
    net.router(r).config().drop_on_congested_no_alt = true;
    const auto* eg = em.wirings[as.value()].egress_to(next);
    ASSERT_NE(eg, nullptr);
    net.router(r).fib().set_alt(dst, eg->port);
  }

  // Congest every default egress towards AS 0.
  for (const AsId as : ring) {
    const RouterId r = em.wirings[as.value()].routers.front();
    const auto* eg = em.wirings[as.value()].egress_to(AsId(0));
    ASSERT_NE(eg, nullptr);
    for (int i = 0; i < 70; ++i) {
      Packet filler;
      filler.dst = dst;
      filler.flow = FlowId(1000 + as.value());
      filler.size_bytes = 1000;
      net.transmit_router(r, eg->port, filler);
    }
  }

  // Inject a packet at AS1 as if it entered from its *peer* AS3 (tag=0):
  // deflection 1->2 would be chosen clockwise... but check fails at AS1
  // already (alt is a peer, tag=0) -> faithful drop. Inject instead as
  // host-origin (tag=1): AS1 deflects to AS2; at AS2 the tag is now 0 and
  // AS2's alternative (peer AS3) fails the check -> dropped there. Either
  // way: no loop, TTL never exhausted.
  const RouterId r1 = em.wirings[1].routers.front();
  Packet p;
  p.src = em.attachment(src_host).addr;
  p.dst = dst;
  p.flow = FlowId(1);
  p.size_bytes = 1000;
  p.mifo_tag = true;  // host-origin tag
  net.router(r1).handle_packet(net, p, PortId::invalid());
  net.run_until(1.0);

  dp::RouterCounters total = net.total_counters();
  EXPECT_EQ(total.ttl_drops, 0u) << "packet looped until TTL exhaustion";
  // The deflected packet died at the Tag-Check of the second peer.
  EXPECT_GE(total.valley_drops, 1u);
  EXPECT_GE(total.deflected, 1u);
}

// Fig. 2(b) at packet level: without the IP-in-IP returned-packet rule the
// deflected packet would ping-pong between iBGP peers R1 and R2. With it,
// R2 recognises the sender as its own default next hop and pushes the
// packet out the alternative. We assert the packet reaches the host.
TEST(LoopScenarios, Fig2bEncapsulationPreventsIbgpCycle) {
  // AS 10 (two border routers) connects to AS 1 (default) and AS 2 (alt),
  // both providing transit to dest AS 3.
  topo::AsGraph g(4);
  const AsId x(0), y(1), z(2), d(3);
  g.add_peering(x, y);
  g.add_peering(x, z);
  g.add_provider_customer(y, d);
  g.add_provider_customer(z, d);

  std::vector<bool> expand(4, false);
  expand[x.value()] = true;  // AS X gets one border router per neighbor
  testbed::EmulationBuilder builder(g, expand);
  const HostId src = builder.attach_host(x);
  const HostId dst = builder.attach_host(d);
  auto em = builder.finalize();
  dp::Network& net = *em.net;

  // Y has the lower id -> default egress is the border router facing Y
  // (call it R1); the border facing Z is R2.
  const RouterId r1 = em.wirings[x.value()].egress_to(y)->router;
  const RouterId r2 = em.wirings[x.value()].egress_to(z)->router;
  for (const RouterId r : em.wirings[x.value()].routers) {
    net.router(r).config().mifo_enabled = true;
  }
  const dp::Addr dst_addr = em.attachment(dst).addr;
  // Program the alternative AS-wide, as the daemon would: on R1 the alt is
  // the intra link to R2; on R2 it is the eBGP port to Z.
  const auto& wx = em.wirings[x.value()];
  net.router(r1).fib().set_alt(dst_addr, wx.intra_port(r1, r2));
  net.router(r2).fib().set_alt(dst_addr, wx.egress_to(z)->port);

  // Congest R1's default egress so the next packet deflects to R2.
  const PortId r1_egress = wx.egress_to(y)->port;
  for (int i = 0; i < 70; ++i) {
    Packet filler;
    filler.dst = dst_addr;
    filler.flow = FlowId(99);
    filler.size_bytes = 1000;
    net.transmit_router(r1, r1_egress, filler);
  }

  Packet p;
  p.src = em.attachment(src).addr;
  p.dst = dst_addr;
  p.flow = FlowId(1);
  p.size_bytes = 1000;
  p.mifo_tag = true;  // as tagged at the AS entering point / host ingress
  net.router(r1).handle_packet(net, p, PortId::invalid());
  net.run_until(1.0);

  const auto total = net.total_counters();
  // R1 encapsulated towards R2; R2 detected the returned packet and used
  // its alternative instead of bouncing it back.
  EXPECT_GE(net.router(r1).counters().encapsulated, 1u);
  EXPECT_GE(net.router(r2).counters().returned_detected, 1u);
  EXPECT_EQ(total.ttl_drops, 0u);
  EXPECT_EQ(total.valley_drops, 0u);
  // The deflected packet left via Z's egress.
  EXPECT_GE(net.router(r2).port(wx.egress_to(z)->port).pkts_sent_total, 1u);
}

}  // namespace
}  // namespace mifo
