// Algorithm 1 unit tests: each branch of the MIFO forwarding engine is
// exercised on a hand-built border-router fixture.

#include <gtest/gtest.h>

#include "dataplane/network.hpp"

namespace mifo::dp {
namespace {

// One AS-X border router with:
//   port in_cust : eBGP from a customer AS
//   port in_peer : eBGP from a peer AS
//   port out_def : eBGP default egress
//   port out_alt : eBGP alternative egress towards a *peer* AS
//   port ibgp    : iBGP link to a second router of AS X
// plus a destination FIB entry dst -> (out_def, out_alt or ibgp).
class ForwardingEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rx_ = net_.add_router(AsId(100));      // the router under test
    peer_ibgp_ = net_.add_router(AsId(100));
    cust_ = net_.add_router(AsId(1));
    peer_in_ = net_.add_router(AsId(2));
    def_ = net_.add_router(AsId(3));
    alt_ = net_.add_router(AsId(4));

    in_cust_ = net_.connect_ebgp(cust_, rx_, topo::Rel::Provider).second;
    in_peer_ = net_.connect_ebgp(peer_in_, rx_, topo::Rel::Peer).second;
    out_def_ = net_.connect_ebgp(rx_, def_, topo::Rel::Peer).first;
    out_alt_ = net_.connect_ebgp(rx_, alt_, topo::Rel::Peer).first;
    ibgp_ = net_.connect_ibgp(rx_, peer_ibgp_).first;

    router().config().mifo_enabled = true;
    router().fib().set_route(kDst, out_def_);
  }

  Router& router() { return net_.router(rx_); }

  Packet data_packet(std::uint64_t flow = 1) {
    Packet p;
    p.src = 0x80000001;
    p.dst = kDst;
    p.flow = FlowId(flow);
    p.size_bytes = 1000;
    return p;
  }

  /// Fills the default egress queue past the congestion threshold. The
  /// first packet starts transmitting immediately; the rest stay queued
  /// (no events run), so the queue ratio is deterministic.
  void congest_default() {
    for (int i = 0; i < 61; ++i) {
      Packet filler = data_packet(999);
      net_.transmit_router(rx_, out_def_, filler);
    }
    ASSERT_GE(router().port(out_def_).queue_ratio(), 0.5);
  }

  std::uint64_t sent_on(PortId p) {
    // Queued + already-transmitted packets on that port.
    return net_.router(rx_).port(p).pkts_sent_total +
           net_.router(rx_).port(p).queue.size();
  }

  static constexpr Addr kDst = 0x80000042;

  Network net_;
  RouterId rx_, peer_ibgp_, cust_, peer_in_, def_, alt_;
  PortId in_cust_, in_peer_, out_def_, out_alt_, ibgp_;
};

TEST_F(ForwardingEngineTest, DefaultForwardingWhenUncongested) {
  router().fib().set_alt(kDst, out_alt_);
  router().handle_packet(net_, data_packet(), in_cust_);
  EXPECT_EQ(sent_on(out_def_), 1u);
  EXPECT_EQ(sent_on(out_alt_), 0u);
  EXPECT_EQ(router().counters().deflected, 0u);
}

TEST_F(ForwardingEngineTest, NoRouteDrops) {
  Packet p = data_packet();
  p.dst = 0x80009999;  // no FIB entry
  router().handle_packet(net_, p, in_cust_);
  EXPECT_EQ(router().counters().no_route_drops, 1u);
}

TEST_F(ForwardingEngineTest, CongestionDeflectsWhenTagSet) {
  // Upstream is a customer -> tag=1 -> the peer alternative is admissible.
  router().fib().set_alt(kDst, out_alt_);
  congest_default();
  router().handle_packet(net_, data_packet(), in_cust_);
  EXPECT_EQ(router().counters().deflected, 1u);
  EXPECT_EQ(router().counters().flow_switches, 1u);
  EXPECT_EQ(sent_on(out_alt_), 1u);
  EXPECT_EQ(router().pinned_alt_flows(), 1u);
}

TEST_F(ForwardingEngineTest, TagCheckRefusesPeerToPeerTransit) {
  // Upstream peer (tag=0) + peer alternative: Eq. 3 refuses; the flow
  // stays on the (congested) default by default config.
  router().fib().set_alt(kDst, out_alt_);
  congest_default();
  router().handle_packet(net_, data_packet(), in_peer_);
  EXPECT_EQ(router().counters().deflected, 0u);
  EXPECT_EQ(sent_on(out_alt_), 0u);
  EXPECT_EQ(sent_on(out_def_), 62u);  // 61 fillers + this packet
  EXPECT_EQ(router().pinned_alt_flows(), 0u);
}

TEST_F(ForwardingEngineTest, FaithfulLine20DropsWhenConfigured) {
  router().config().drop_on_congested_no_alt = true;
  router().fib().set_alt(kDst, out_alt_);
  congest_default();
  router().handle_packet(net_, data_packet(), in_peer_);
  EXPECT_EQ(router().counters().valley_drops, 1u);
  EXPECT_EQ(sent_on(out_def_), 61u);  // only the fillers
}

TEST_F(ForwardingEngineTest, HostOriginatedPacketsAreTagged) {
  // Attach a host: packets entering from it behave like customer ingress.
  const HostId h = net_.add_host();
  const PortId host_port = net_.connect_host(rx_, h);
  router().fib().set_alt(kDst, out_alt_);
  congest_default();
  Packet p = data_packet();
  p.src = net_.host_addr(h);
  router().handle_packet(net_, p, host_port);
  EXPECT_EQ(router().counters().deflected, 1u);
  EXPECT_EQ(sent_on(out_alt_), 1u);
}

TEST_F(ForwardingEngineTest, DeflectionViaIbgpEncapsulates) {
  router().fib().set_alt(kDst, ibgp_);
  congest_default();
  router().handle_packet(net_, data_packet(), in_cust_);
  EXPECT_EQ(router().counters().encapsulated, 1u);
  EXPECT_EQ(router().counters().deflected, 1u);
  // The queued packet carries the outer header naming us as sender.
  const auto& q = router().port(ibgp_).queue;
  const Port& p = router().port(ibgp_);
  if (!q.empty()) {
    EXPECT_TRUE(q.front().encapsulated);
    EXPECT_EQ(q.front().outer_src, router().addr());
    EXPECT_EQ(q.front().outer_dst, p.peer_addr);
  } else {
    SUCCEED();  // already in flight; encap counter asserted above
  }
}

TEST_F(ForwardingEngineTest, ReturnedPacketMustDeflect) {
  // Fig. 2(b): this router's default next hop *is* the iBGP sender that
  // deflected the packet to us -> the alternative must be used even though
  // nothing is congested here.
  router().fib().set_route(kDst, ibgp_);  // default via iBGP peer
  router().fib().set_alt(kDst, out_alt_);
  Packet p = data_packet();
  p.mifo_tag = true;  // tagged at the AS entering point upstream
  encap(p, net_.router_addr(peer_ibgp_), net_.router_addr(rx_));
  router().handle_packet(net_, p, ibgp_);
  EXPECT_EQ(router().counters().returned_detected, 1u);
  EXPECT_EQ(router().counters().deflected, 1u);
  EXPECT_EQ(sent_on(out_alt_), 1u);
  EXPECT_EQ(sent_on(ibgp_), 0u);  // never bounced back
}

TEST_F(ForwardingEngineTest, ReturnedPacketWithoutAdmissibleAltDrops) {
  router().fib().set_route(kDst, ibgp_);
  router().fib().set_alt(kDst, out_alt_);
  Packet p = data_packet();
  p.mifo_tag = false;  // entered the AS from a peer/provider upstream
  encap(p, net_.router_addr(peer_ibgp_), net_.router_addr(rx_));
  router().handle_packet(net_, p, ibgp_);
  // Bouncing back would cycle (the sender is the default next hop), and the
  // peer-class alternative fails the Tag-Check: drop.
  EXPECT_EQ(router().counters().valley_drops, 1u);
  EXPECT_EQ(sent_on(ibgp_), 0u);
  EXPECT_EQ(sent_on(out_alt_), 0u);
}

TEST_F(ForwardingEngineTest, ReturnedPacketWithNoAltDrops) {
  router().fib().set_route(kDst, ibgp_);  // default via iBGP peer, no alt
  Packet p = data_packet();
  p.mifo_tag = true;
  encap(p, net_.router_addr(peer_ibgp_), net_.router_addr(rx_));
  router().handle_packet(net_, p, ibgp_);
  EXPECT_EQ(router().counters().valley_drops, 1u);
}

TEST_F(ForwardingEngineTest, FlowPinSticksAfterCongestionClears) {
  router().fib().set_alt(kDst, out_alt_);
  congest_default();
  router().handle_packet(net_, data_packet(7), in_cust_);
  ASSERT_EQ(router().counters().deflected, 1u);
  // Drain everything.
  net_.run_until(1.0);
  ASSERT_LT(router().port(out_def_).queue_ratio(), 0.01);
  // Same flow still deflects (pinned)…
  router().handle_packet(net_, data_packet(7), in_cust_);
  EXPECT_EQ(router().counters().deflected, 2u);
  // …but a new flow takes the (now uncongested) default.
  router().handle_packet(net_, data_packet(8), in_cust_);
  EXPECT_EQ(router().counters().deflected, 2u);
}

TEST_F(ForwardingEngineTest, ReevaluateReleasesPinsWhenDrained) {
  router().fib().set_alt(kDst, out_alt_);
  congest_default();
  router().handle_packet(net_, data_packet(7), in_cust_);
  ASSERT_EQ(router().pinned_alt_flows(), 1u);
  // Rate-utilization says the egress is idle -> pins released.
  router().reevaluate_flows(net_, [](PortId) { return 0.0; });
  EXPECT_EQ(router().pinned_alt_flows(), 0u);
  EXPECT_EQ(router().counters().flow_switches, 2u);  // deflect + return
}

TEST_F(ForwardingEngineTest, ReevaluateKeepsPinsWhileEgressBusy) {
  router().fib().set_alt(kDst, out_alt_);
  congest_default();
  router().handle_packet(net_, data_packet(7), in_cust_);
  router().reevaluate_flows(net_, [](PortId) { return 0.95; });
  EXPECT_EQ(router().pinned_alt_flows(), 1u);
}

TEST_F(ForwardingEngineTest, IdlePinsExpire) {
  router().fib().set_alt(kDst, out_alt_);
  congest_default();
  router().handle_packet(net_, data_packet(7), in_cust_);
  ASSERT_EQ(router().pinned_alt_flows(), 1u);
  net_.run_until(1.5);  // past the router's 1 s pin idle timeout
  router().reevaluate_flows(net_, [](PortId) { return 0.95; });
  EXPECT_EQ(router().pinned_alt_flows(), 0u);
}

TEST_F(ForwardingEngineTest, EncapForwardedByOuterHeaderWhenNotOurs) {
  // An encapsulated packet whose outer destination is a third router is
  // forwarded by the outer header (non-full-mesh intra topologies).
  const Addr other = net_.router_addr(peer_ibgp_);
  router().fib().set_route(other, ibgp_);
  Packet p = data_packet();
  encap(p, 0x777, other);
  router().handle_packet(net_, p, in_cust_);
  EXPECT_EQ(sent_on(ibgp_), 1u);
  // Still encapsulated in the queue (not decapped here).
  const auto& q = router().port(ibgp_).queue;
  if (!q.empty()) {
    EXPECT_TRUE(q.front().encapsulated);
  }
}

TEST_F(ForwardingEngineTest, TtlDecrementsAndDropsAtZero) {
  Packet p = data_packet();
  p.ttl = 1;
  router().handle_packet(net_, p, in_cust_);  // ttl 1 -> 0, still forwarded
  EXPECT_EQ(router().counters().ttl_drops, 0u);
  Packet q = data_packet();
  q.ttl = 0;
  router().handle_packet(net_, q, in_cust_);
  EXPECT_EQ(router().counters().ttl_drops, 1u);
}

TEST_F(ForwardingEngineTest, NonMifoRouterNeverDeflectsOnCongestion) {
  router().config().mifo_enabled = false;
  router().fib().set_alt(kDst, out_alt_);
  congest_default();
  router().handle_packet(net_, data_packet(), in_cust_);
  EXPECT_EQ(router().counters().deflected, 0u);
  EXPECT_EQ(sent_on(out_def_), 62u);
}

TEST_F(ForwardingEngineTest, NonMifoRouterStillHonoursReturnedRule) {
  // Compatibility: even a BGP-only router must not bounce a deflected
  // packet back to its iBGP sender.
  router().config().mifo_enabled = false;
  router().fib().set_route(kDst, ibgp_);
  router().fib().set_alt(kDst, out_alt_);
  Packet p = data_packet();
  p.mifo_tag = true;
  encap(p, net_.router_addr(peer_ibgp_), net_.router_addr(rx_));
  router().handle_packet(net_, p, ibgp_);
  EXPECT_EQ(router().counters().returned_detected, 1u);
  EXPECT_EQ(sent_on(ibgp_), 0u);
}

}  // namespace
}  // namespace mifo::dp
