#include "dataplane/shard.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dataplane/network.hpp"
#include "obs/registry.hpp"

namespace mifo::dp {
namespace {

// Builds the same linear topology on a serial Network or a ShardedNetwork
// (identical construction API): one router per AS in a chain of eBGP peer
// links, a host hanging off each end, and static FIB routes in both
// directions. AS ids are spread out so consecutive routers usually hash to
// different shards.
struct Chain {
  std::vector<RouterId> routers;
  HostId h_left;
  HostId h_right;

  template <typename Net>
  static Chain build(Net& net, const std::vector<std::uint32_t>& as_ids,
                     SimTime ebgp_delay = 50e-6) {
    Chain c;
    for (const std::uint32_t as : as_ids) {
      c.routers.push_back(net.add_router(AsId(as)));
    }
    c.h_left = net.add_host();
    c.h_right = net.add_host();
    const PortId p_left = net.connect_host(c.routers.front(), c.h_left);
    const PortId p_right = net.connect_host(c.routers.back(), c.h_right);

    const Addr left = net.host_addr(c.h_left);
    const Addr right = net.host_addr(c.h_right);
    std::vector<std::pair<PortId, PortId>> links;
    for (std::size_t i = 0; i + 1 < c.routers.size(); ++i) {
      links.push_back(net.connect_ebgp(c.routers[i], c.routers[i + 1],
                                       topo::Rel::Peer, kGigabit, ebgp_delay));
    }
    for (std::size_t i = 0; i < c.routers.size(); ++i) {
      auto& fib = net.router(c.routers[i]).fib();
      if (i + 1 < c.routers.size()) fib.set_route(right, links[i].first);
      if (i > 0) fib.set_route(left, links[i - 1].second);
    }
    net.router(c.routers.front()).fib().set_route(left, p_left);
    net.router(c.routers.back()).fib().set_route(right, p_right);
    return c;
  }
};

// Staggered starts keep flows from colliding on identical event timestamps,
// which is what makes serial-vs-sharded comparisons exact (DESIGN.md §6).
template <typename Net>
std::vector<FlowId> start_chain_flows(Net& net, const Chain& c, int n_flows,
                                      Bytes size) {
  std::vector<FlowId> ids;
  for (int i = 0; i < n_flows; ++i) {
    FlowParams fp;
    fp.src = (i % 2 == 0) ? c.h_left : c.h_right;
    fp.dst = (i % 2 == 0) ? c.h_right : c.h_left;
    fp.size = size;
    fp.start = 1e-3 * i;
    ids.push_back(net.start_flow(fp));
  }
  return ids;
}

std::uint64_t drop_total(
    const std::vector<std::pair<std::string, std::uint64_t>>& breakdown) {
  std::uint64_t n = 0;
  for (const auto& [reason, count] : breakdown) n += count;
  return n;
}

// AS ids chosen so a 4-shard FNV partition splits the chain (asserted below).
const std::vector<std::uint32_t> kChainAses = {11, 23, 37, 41, 53, 67};

TEST(ShardedNetwork, PartitionKeepsEachAsOnOneShard) {
  ShardedNetwork net(4);
  const RouterId a0 = net.add_router(AsId(7));
  const RouterId a1 = net.add_router(AsId(7));
  const RouterId b0 = net.add_router(AsId(9));
  const HostId h = net.add_host();
  net.connect_host(a1, h);

  EXPECT_EQ(net.shard_of(a0), net.shard_of(a1));
  EXPECT_EQ(net.shard_of(a0), net.shard_of_as(AsId(7)));
  EXPECT_EQ(net.shard_of(b0), net.shard_of_as(AsId(9)));
  // A host lives where its access router lives.
  EXPECT_EQ(net.shard_of(h), net.shard_of(a1));
}

TEST(ShardedNetwork, ChainTopologyActuallyCrossesShards) {
  // Guards the fixture itself: if kChainAses ever degenerates to one shard,
  // every "sharded" test below would be vacuously serial.
  ShardedNetwork net(4);
  Chain c = Chain::build(net, kChainAses);
  bool crosses = false;
  for (std::size_t i = 0; i + 1 < c.routers.size(); ++i) {
    crosses |= net.shard_of(c.routers[i]) != net.shard_of(c.routers[i + 1]);
  }
  EXPECT_TRUE(crosses);
}

TEST(ShardedNetwork, CrossShardFlowCompletes) {
  ShardedNetwork net(4);
  Chain c = Chain::build(net, kChainAses);
  FlowParams fp;
  fp.src = c.h_left;
  fp.dst = c.h_right;
  fp.size = 50 * 1000;  // 50 packets
  const FlowId id = net.start_flow(fp);
  net.run_to_completion(10.0);

  EXPECT_TRUE(net.idle());
  EXPECT_TRUE(net.sender_flow(id).done);
  EXPECT_GT(net.sender_flow(id).completion_time(), 0.0);
  EXPECT_EQ(net.receiver_flow(id).expected, 50u);
  // The conservative window derives from the narrowest cross-shard link.
  EXPECT_DOUBLE_EQ(net.window(), 50e-6);
  // Data and ACKs really crossed rings.
  std::uint64_t pushed = 0;
  for (const RingStats& rs : net.ring_stats()) pushed += rs.pushed;
  EXPECT_GT(pushed, 0u);
}

TEST(ShardedNetwork, MatchesSerialOracleAtEveryThreadCount) {
  // The serial engine is the oracle: delivered/injected totals, per-flow
  // receiver counts, completion times (bit-exact) and the full drop
  // breakdown must agree at every shard count.
  Network oracle;
  Chain oc = Chain::build(oracle, kChainAses);
  const auto oracle_ids = start_chain_flows(oracle, oc, 4, 30 * 1000);
  oracle.run_to_completion(20.0);
  ASSERT_TRUE(oracle.idle());

  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedNetwork net(shards);
    Chain c = Chain::build(net, kChainAses);
    const auto ids = start_chain_flows(net, c, 4, 30 * 1000);
    net.run_to_completion(20.0);
    ASSERT_TRUE(net.idle());

    EXPECT_EQ(net.injected_pkts(), oracle.injected_pkts());
    EXPECT_EQ(net.delivered_pkts(), oracle.delivered_pkts());
    EXPECT_EQ(net.misdelivered_pkts(), oracle.misdelivered_pkts());
    EXPECT_EQ(net.stale_flow_pkts(), oracle.stale_flow_pkts());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const FlowState& of = oracle.flow(oracle_ids[i]);
      EXPECT_TRUE(net.sender_flow(ids[i]).done);
      EXPECT_EQ(net.sender_flow(ids[i]).end_time, of.end_time);
      EXPECT_EQ(net.sender_flow(ids[i]).retransmits, of.retransmits);
      EXPECT_EQ(net.receiver_flow(ids[i]).expected, of.total_pkts);
    }
    const auto ob = oracle.drop_breakdown();
    const auto sb = net.drop_breakdown();
    ASSERT_EQ(sb.size(), ob.size() + 1);  // + ring_overflow
    for (std::size_t i = 0; i < ob.size(); ++i) {
      EXPECT_EQ(sb[i].first, ob[i].first);
      EXPECT_EQ(sb[i].second, ob[i].second) << sb[i].first;
    }
    EXPECT_EQ(sb.back().first, "ring_overflow");
    EXPECT_EQ(sb.back().second, 0u);
  }
}

TEST(ShardedNetwork, RepeatedRunsAreDeterministic) {
  auto run_once = [] {
    ShardedNetwork net(4);
    Chain c = Chain::build(net, kChainAses);
    const auto ids = start_chain_flows(net, c, 6, 40 * 1000);
    net.run_to_completion(20.0);
    std::vector<double> fingerprint;
    fingerprint.push_back(static_cast<double>(net.delivered_pkts()));
    fingerprint.push_back(static_cast<double>(net.injected_pkts()));
    for (const FlowId id : ids) {
      fingerprint.push_back(net.sender_flow(id).end_time);
    }
    for (const auto& [reason, count] : net.drop_breakdown()) {
      fingerprint.push_back(static_cast<double>(count));
    }
    for (const RingStats& rs : net.ring_stats()) {
      fingerprint.push_back(static_cast<double>(rs.pushed));
    }
    return fingerprint;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(ShardedNetwork, RingOverflowDropsAreAccountedAndConserved) {
  // A 2-entry ring under a multi-packet window forces overflow: the drops
  // must surface in the breakdown and packet conservation must still close.
  ShardConfig cfg;
  cfg.ring_capacity = 2;
  ShardedNetwork net(4, cfg);
  Chain c = Chain::build(net, kChainAses);
  const auto ids = start_chain_flows(net, c, 2, 100 * 1000);
  net.run_to_completion(120.0);
  ASSERT_TRUE(net.idle());

  const auto breakdown = net.drop_breakdown();
  ASSERT_EQ(breakdown.back().first, "ring_overflow");
  EXPECT_GT(breakdown.back().second, 0u);
  // AIMD throttles to what the ring lets through, so flows still finish.
  for (const FlowId id : ids) EXPECT_TRUE(net.sender_flow(id).done);
  // injected == delivered + misdelivered + stale + every drop bucket.
  EXPECT_EQ(net.injected_pkts(),
            net.delivered_pkts() + drop_total(breakdown));
  EXPECT_EQ(net.queued_pkts(), 0u);
}

TEST(ShardedNetwork, ConservationHoldsAtEveryThreadCount) {
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedNetwork net(shards);
    Chain c = Chain::build(net, kChainAses);
    start_chain_flows(net, c, 4, 30 * 1000);
    net.run_to_completion(20.0);
    ASSERT_TRUE(net.idle());
    // The breakdown already contains the misdelivered/stale buckets.
    EXPECT_EQ(net.injected_pkts(),
              net.delivered_pkts() + drop_total(net.drop_breakdown()));
    EXPECT_EQ(net.queued_pkts(), 0u);
  }
}

TEST(ShardedNetwork, PeriodicFiresOnOwningShardAtExactTimes) {
  ShardedNetwork net(4);
  Chain c = Chain::build(net, kChainAses);
  int fires = 0;
  std::vector<SimTime> at;
  net.add_periodic(AsId(kChainAses[2]), 0.1,
                   [&](Network&, SimTime now) {
                     ++fires;
                     at.push_back(now);
                   });
  net.run_until(1.05);
  EXPECT_EQ(fires, 10);
  for (int i = 0; i < fires; ++i) EXPECT_DOUBLE_EQ(at[i], 0.1 * (i + 1));
  EXPECT_DOUBLE_EQ(net.now(), 1.05);
}

TEST(ShardedNetwork, SegmentedRunsAllowParkedControlPlane) {
  // run_until segments with FIB surgery in between — the sharded plane's
  // management-thread moment (set_port_up / router() edits while parked).
  ShardedNetwork net(4);
  Chain c = Chain::build(net, kChainAses);
  FlowParams fp;
  fp.src = c.h_left;
  fp.dst = c.h_right;
  fp.size = 2 * 1000 * 1000;  // long enough to straddle all three segments
  const FlowId id = net.start_flow(fp);

  net.run_until(0.005);
  const std::uint64_t mid = net.delivered_pkts();
  // Cut the first eBGP hop; traffic must stop making progress.
  const PortId cut =
      net.router(c.routers[0]).fib().lookup(net.host_addr(c.h_right))->out_port;
  net.set_port_up(c.routers[0], cut, false);
  net.run_until(0.05);
  net.set_port_up(c.routers[0], cut, true);
  net.run_to_completion(60.0);
  EXPECT_TRUE(net.sender_flow(id).done);
  EXPECT_GT(net.delivered_pkts(), mid);
  const auto breakdown = net.drop_breakdown();
  std::uint64_t down = 0;
  for (const auto& [reason, count] : breakdown) {
    if (reason == "link_down") down = count;
  }
  EXPECT_GT(down, 0u);
}

TEST(ShardedNetwork, GatherRoutersReturnsOwnedState) {
  ShardedNetwork net(4);
  Chain c = Chain::build(net, kChainAses);
  FlowParams fp;
  fp.src = c.h_left;
  fp.dst = c.h_right;
  fp.size = 20 * 1000;
  net.start_flow(fp);
  net.run_to_completion(10.0);

  const std::vector<Router> routers = net.gather_routers();
  ASSERT_EQ(routers.size(), c.routers.size());
  std::uint64_t forwarded = 0;
  for (const Router& r : routers) forwarded += r.counters().forwarded;
  EXPECT_EQ(forwarded, net.total_counters().forwarded);
  EXPECT_GT(forwarded, 0u);  // the copies carry real (owner-shard) state
}

TEST(ShardedNetwork, PublishMetricsMergesReplicaShardsAndExportsRingGauges) {
  ShardedNetwork net(4);
  Chain c = Chain::build(net, kChainAses);
  start_chain_flows(net, c, 4, 30 * 1000);
  net.run_to_completion(10.0);

  obs::Registry reg;
  net.publish_metrics(reg, "eng=sharded");
  const obs::Snapshot snap = reg.snapshot();

  EXPECT_EQ(snap.value_or("dp.num_shards", -1.0, "eng=sharded"), 4.0);
  EXPECT_EQ(snap.value_or("dp.shard_window_seconds", -1.0, "eng=sharded"),
            net.window());
  // Each replica published its own registry shard; snapshot() sums them, so
  // the merged counters must equal the engine-level aggregates.
  EXPECT_EQ(snap.value_or("dp.injected", -1.0, "eng=sharded"),
            static_cast<double>(net.injected_pkts()));
  EXPECT_EQ(snap.value_or("dp.delivered", -1.0, "eng=sharded"),
            static_cast<double>(net.delivered_pkts()));
  EXPECT_EQ(snap.value_or("dp.forwarded", -1.0, "eng=sharded"),
            static_cast<double>(net.total_counters().forwarded));

  // Ring gauges appear per directed shard pair and sum to the engine's
  // ring_stats() view.
  double pushed = 0.0;
  std::uint64_t expected_pushed = 0;
  for (const RingStats& rs : net.ring_stats()) {
    const std::string l = "eng=sharded,from=" + std::to_string(rs.from) +
                          ",to=" + std::to_string(rs.to);
    EXPECT_EQ(snap.value_or("dp.ring_occupancy_peak", -1.0, l),
              static_cast<double>(rs.peak));
    pushed += snap.value_or("dp.ring_pushed", 0.0, l);
    expected_pushed += rs.pushed;
  }
  EXPECT_GT(expected_pushed, 0u);
  EXPECT_EQ(pushed, static_cast<double>(expected_pushed));
}

}  // namespace
}  // namespace mifo::dp
