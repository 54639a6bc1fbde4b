#include "dataplane/network.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "obs/registry.hpp"

namespace mifo::dp {
namespace {

TEST(Network, AddressesAreUniqueAcrossNodeKinds) {
  Network net;
  const RouterId r0 = net.add_router(AsId(0));
  const RouterId r1 = net.add_router(AsId(1));
  const HostId h0 = net.add_host();
  EXPECT_NE(net.router_addr(r0), net.router_addr(r1));
  EXPECT_NE(net.router_addr(r0), net.host_addr(h0));
  EXPECT_NE(net.router_addr(r0), kInvalidAddr);
}

TEST(Network, ConnectEbgpSetsRelationshipBothWays) {
  Network net;
  const RouterId a = net.add_router(AsId(0));
  const RouterId b = net.add_router(AsId(1));
  // b's AS is a's customer.
  const auto [pa, pb] = net.connect_ebgp(a, b, topo::Rel::Customer);
  EXPECT_EQ(net.router(a).port(pa).neighbor_rel, topo::Rel::Customer);
  EXPECT_EQ(net.router(b).port(pb).neighbor_rel, topo::Rel::Provider);
  EXPECT_EQ(net.router(a).port(pa).kind, PortKind::Ebgp);
  EXPECT_EQ(net.router(a).port(pa).peer_addr, net.router_addr(b));
  EXPECT_EQ(net.router(a).port(pa).peer_port, pb);
}

TEST(Network, ConnectIbgpRequiresSameAs) {
  Network net;
  const RouterId a = net.add_router(AsId(7));
  const RouterId b = net.add_router(AsId(7));
  const auto [pa, pb] = net.connect_ibgp(a, b);
  EXPECT_EQ(net.router(a).port(pa).kind, PortKind::Ibgp);
  EXPECT_EQ(net.router(b).port(pb).kind, PortKind::Ibgp);
}

TEST(NetworkDeathTest, EbgpWithinSameAsAborts) {
  Network net;
  const RouterId a = net.add_router(AsId(1));
  const RouterId b = net.add_router(AsId(1));
  EXPECT_DEATH(net.connect_ebgp(a, b, topo::Rel::Peer), "Precondition");
}

TEST(NetworkDeathTest, EventBeforeNowAborts) {
  // No event may be scheduled in its past. A link with a negative delay
  // would schedule the arrival before now(), and so would a cross-shard
  // arrival injected after the clock passed it.
  Network net;
  const RouterId r0 = net.add_router(AsId(0));
  const HostId h1 = net.add_host();
  net.connect_host(r0, h1, kGigabit, -1.0);
  Packet p;
  p.size_bytes = 1000;
  EXPECT_DEATH(net.transmit_host(h1, p), "Precondition");

  net.run_until(1.0);
  RemoteEvent past;
  past.t = 0.5;
  past.node = r0.value();
  EXPECT_DEATH(net.inject_remote(std::move(past)), "Precondition");
  RemoteEvent nan;
  nan.t = std::numeric_limits<SimTime>::quiet_NaN();
  nan.node = r0.value();
  EXPECT_DEATH(net.inject_remote(std::move(nan)), "Precondition");
}

TEST(Network, PacketTraversesChainToHost) {
  // h1 -- r0 -- r1 -- h2, verify an injected packet arrives and that
  // counters move.
  Network net;
  const RouterId r0 = net.add_router(AsId(0));
  const RouterId r1 = net.add_router(AsId(1));
  const HostId h1 = net.add_host();
  const HostId h2 = net.add_host();
  const PortId p_h1 = net.connect_host(r0, h1);
  const PortId p_h2 = net.connect_host(r1, h2);
  const auto [p01, p10] = net.connect_ebgp(r0, r1, topo::Rel::Peer);
  net.router(r0).fib().set_route(net.host_addr(h2), p01);
  net.router(r1).fib().set_route(net.host_addr(h2), p_h2);
  net.router(r1).fib().set_route(net.host_addr(h1), p10);
  net.router(r0).fib().set_route(net.host_addr(h1), p_h1);

  FlowParams fp;
  fp.src = h1;
  fp.dst = h2;
  fp.size = 5000;  // 5 packets
  net.start_flow(fp);
  net.run_to_completion(10.0);

  ASSERT_EQ(net.flows().size(), 1u);
  EXPECT_TRUE(net.flows()[0].done);
  EXPECT_GT(net.flows()[0].completion_time(), 0.0);
  EXPECT_GE(net.router(r0).counters().forwarded, 5u);
  EXPECT_GE(net.router(r1).counters().forwarded, 5u);
}

TEST(Network, NoRouteDropsCounted) {
  Network net;
  const RouterId r0 = net.add_router(AsId(0));
  const HostId h1 = net.add_host();
  const HostId h2 = net.add_host();
  net.connect_host(r0, h1);
  net.connect_host(r0, h2);
  // No FIB entries at all: data packets die at r0.
  FlowParams fp;
  fp.src = h1;
  fp.dst = h2;
  fp.size = 1000;
  net.start_flow(fp);
  net.run_until(0.1);
  EXPECT_GT(net.router(r0).counters().no_route_drops, 0u);
  EXPECT_FALSE(net.flows()[0].done);
}

TEST(Network, PeriodicCallbackFiresRepeatedly) {
  Network net;
  int fires = 0;
  net.add_periodic(0.1, [&fires](Network&, SimTime) { ++fires; });
  net.run_until(1.05);
  EXPECT_EQ(fires, 10);
}

TEST(Network, DeliveryTraceAccumulatesBytes) {
  Network net;
  const RouterId r0 = net.add_router(AsId(0));
  const HostId h1 = net.add_host();
  const HostId h2 = net.add_host();
  const PortId p1 = net.connect_host(r0, h1);
  const PortId p2 = net.connect_host(r0, h2);
  net.router(r0).fib().set_route(net.host_addr(h2), p2);
  net.router(r0).fib().set_route(net.host_addr(h1), p1);
  net.enable_delivery_trace(0.01);
  FlowParams fp;
  fp.src = h1;
  fp.dst = h2;
  fp.size = 100 * 1000;
  net.start_flow(fp);
  net.run_to_completion(10.0);
  Bytes total = 0;
  for (const Bytes b : net.delivery_buckets()) total += b;
  EXPECT_EQ(total, 100 * 1000u);
}

TEST(Network, RunUntilAdvancesClockWithoutEvents) {
  Network net;
  net.run_until(2.5);
  EXPECT_DOUBLE_EQ(net.now(), 2.5);
}

TEST(Network, TtlExpiryDropsLoopingPacket) {
  // Two routers pointing at each other for a host behind neither.
  Network net;
  const RouterId r0 = net.add_router(AsId(0));
  const RouterId r1 = net.add_router(AsId(1));
  const HostId h1 = net.add_host();
  const HostId h2 = net.add_host();
  net.connect_host(r0, h1);
  net.connect_host(r1, h2);
  const auto [p01, p10] = net.connect_ebgp(r0, r1, topo::Rel::Peer);
  const Addr fake = 0x7fffffff;
  net.router(r0).fib().set_route(fake, p01);
  net.router(r1).fib().set_route(fake, p10);

  Packet p;
  p.src = net.host_addr(h1);
  p.dst = fake;
  p.flow = FlowId(0);
  p.size_bytes = 1000;
  net.router(r0).handle_packet(net, p, PortId::invalid());
  net.run_until(1.0);
  EXPECT_EQ(net.router(r0).counters().ttl_drops +
                net.router(r1).counters().ttl_drops,
            1u);
}

TEST(Network, RunUntilTieBreakIsStableFifo) {
  // Events with identical timestamps must dispatch in push order. The
  // sharded plane's epoch barrier (shard.hpp) relies on this invariant to
  // keep per-shard dispatch deterministic, so a change to the event queue's
  // tie rule is a cross-engine breakage, not a tweak.
  Network net;
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) {
    // Same interval => all eight events carry the same timestamp each round.
    net.add_periodic(0.25, [i, &fired](Network&, SimTime) {
      fired.push_back(i);
    });
  }
  net.run_until(0.25);
  ASSERT_EQ(fired.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(fired[i], i);

  // Each dispatch re-arms in dispatch order, so the order is stable across
  // rounds too — not just for the initially registered batch.
  for (int round = 2; round <= 5; ++round) {
    fired.clear();
    net.run_until(0.25 * round);
    ASSERT_EQ(fired.size(), 8u) << "round " << round;
    for (int i = 0; i < 8; ++i) EXPECT_EQ(fired[i], i) << "round " << round;
  }
}

TEST(Network, SameInstantEventsOfMixedKindsDispatchInPushOrder) {
  // Three events due at t = 0.5, pushed periodic, flow start, periodic:
  // the first periodic runs before the flow has started, the second after.
  Network net;
  const RouterId r0 = net.add_router(AsId(0));
  const HostId h1 = net.add_host();
  const HostId h2 = net.add_host();
  net.connect_host(r0, h1);
  net.connect_host(r0, h2);
  std::vector<bool> started;
  const auto record = [&started](Network& n, SimTime) {
    started.push_back(n.flows()[0].started);
  };
  net.add_periodic(0.5, record);
  FlowParams fp;
  fp.src = h1;
  fp.dst = h2;
  fp.size = 1000;
  fp.start = 0.5;
  net.start_flow(fp);
  net.add_periodic(0.5, record);
  net.run_until(0.5);
  EXPECT_EQ(started, (std::vector<bool>{false, true}));
}

TEST(Network, EventsCountTwoPerHop) {
  // h1 -- r0 -- r1 -- h2: one packet crosses three links, and each link
  // costs its sender a transmission-done event and its receiver an arrival.
  Network net;
  const RouterId r0 = net.add_router(AsId(0));
  const RouterId r1 = net.add_router(AsId(1));
  const HostId h1 = net.add_host();
  const HostId h2 = net.add_host();
  net.connect_host(r0, h1);
  const PortId p_h2 = net.connect_host(r1, h2);
  const auto [p01, p10] = net.connect_ebgp(r0, r1, topo::Rel::Peer);
  net.router(r0).fib().set_route(net.host_addr(h2), p01);
  net.router(r1).fib().set_route(net.host_addr(h2), p_h2);

  Packet p;
  p.src = net.host_addr(h1);
  p.dst = net.host_addr(h2);
  p.size_bytes = 1000;
  net.transmit_host(h1, p);
  net.run_to_completion(1.0);
  EXPECT_EQ(net.stale_flow_pkts(), 1u);  // arrived; no flow state behind it

  obs::Registry reg;
  net.publish_metrics(reg, "");
  EXPECT_EQ(reg.snapshot().value_or("dp.events", -1.0), 6.0);
}

TEST(Network, RegisterFlowDoesNotSchedule) {
  // register_flow is the shard-replica half of start_flow: the FlowState
  // exists (receiver side needs it) but no FlowStart event is pushed and
  // nothing is ever transmitted from this replica.
  Network net;
  const RouterId r0 = net.add_router(AsId(0));
  const RouterId r1 = net.add_router(AsId(1));
  const HostId h1 = net.add_host();
  const HostId h2 = net.add_host();
  net.connect_host(r0, h1);
  net.connect_host(r1, h2);
  net.connect_ebgp(r0, r1, topo::Rel::Peer);

  FlowParams fp;
  fp.src = h1;
  fp.dst = h2;
  fp.size = 10 * 1000;
  const FlowId id = net.register_flow(fp);
  EXPECT_EQ(net.flows().size(), 1u);
  EXPECT_EQ(net.flow(id).total_pkts, 10u);
  EXPECT_TRUE(net.idle());
  net.run_until(1.0);
  EXPECT_EQ(net.injected_pkts(), 0u);
  EXPECT_FALSE(net.flow(id).started);
}

}  // namespace
}  // namespace mifo::dp
