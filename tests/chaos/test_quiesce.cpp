// Quiescent-point detection on the sharded plane: the chaos engine's
// safety-under-churn argument needs points where the verify:: prover can run
// against a consistent, drained forwarding state. These tests pin down when
// such points exist, that the gathered snapshot equals the serial oracle's
// state, and that the prover reaches the same verdict on both.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/quiesce.hpp"
#include "testbed/fig11.hpp"
#include "testbed/sharded_emulation.hpp"
#include "verify/deflection_graph.hpp"

namespace mifo::chaos {
namespace {

using testbed::EmulationBuilder;
using testbed::Fig11Ids;

struct Fixture {
  Fig11Ids ids;
  topo::AsGraph g = testbed::fig11_graph();
  std::vector<bool> expand;

  Fixture() : expand(g.num_ases(), false) {
    expand[ids.as3.value()] = true;
    expand[ids.as4.value()] = true;
    expand[ids.as6.value()] = true;
  }

  template <typename BuilderT>
  void attach_hosts(BuilderT& b) const {
    b.attach_host(ids.as1);
    b.attach_host(ids.as2);
    b.attach_host(ids.as5);
    b.attach_host(ids.as5);
  }
};

TEST(ShardedQuiescence, UntouchedPlaneIsQuiescentAndSnapshotMatchesSerial) {
  const Fixture fx;

  EmulationBuilder sb(fx.g, fx.expand);
  fx.attach_hosts(sb);
  testbed::ShardedEmulation em = sb.finalize(4);
  em.enable_mifo({fx.ids.as3}, dp::RouterConfig{}, 0.0050003);

  // No packet ever injected: the very first barrier is a quiescent point.
  EXPECT_TRUE(is_quiescent(*em.net));
  const QuiescentPoint qp = await_quiescence(*em.net, /*deadline=*/1.0);
  ASSERT_TRUE(qp.reached);
  EXPECT_EQ(qp.t, 0.0);
  ASSERT_EQ(qp.routers.size(), em.net->num_routers());

  // The snapshot is bit-identical wiring: the prover must explore the exact
  // same deflection graph as on the serially-built network.
  EmulationBuilder ob(fx.g, fx.expand);
  fx.attach_hosts(ob);
  testbed::Emulation oracle = ob.finalize();
  oracle.enable_mifo({fx.ids.as3}, dp::RouterConfig{}, 0.0050003);

  const verify::LoopCheck sharded = verify::check_loop_freedom(qp.routers);
  const verify::LoopCheck serial = verify::check_loop_freedom(*oracle.net);
  EXPECT_TRUE(sharded.loop_free);
  EXPECT_TRUE(serial.loop_free);
  EXPECT_EQ(sharded.stats.destinations, serial.stats.destinations);
  EXPECT_EQ(sharded.stats.states, serial.stats.states);
  EXPECT_EQ(sharded.stats.edges, serial.stats.edges);
}

TEST(ShardedQuiescence, DetectsDrainUnderTrafficAndProvesLoopFreedom) {
  const Fixture fx;
  EmulationBuilder sb(fx.g, fx.expand);
  fx.attach_hosts(sb);
  testbed::ShardedEmulation em = sb.finalize(2);
  em.enable_mifo({fx.ids.as3}, dp::RouterConfig{}, 0.0050003);

  for (std::size_t pair = 0; pair < 2; ++pair) {
    dp::FlowParams fp;
    fp.src = em.hosts[pair].host;
    fp.dst = em.hosts[2 + pair].host;
    fp.size = 500 * 1000;
    fp.start = 1e-3 * static_cast<SimTime>(pair);
    em.net->start_flow(fp);
  }

  // Mid-flight the books cannot close...
  em.net->run_until(0.002);
  EXPECT_FALSE(is_quiescent(*em.net));
  const QuiescentPoint early = await_quiescence(*em.net, /*deadline=*/0.004);
  EXPECT_FALSE(early.reached);
  EXPECT_TRUE(early.routers.empty());

  // ...but once traffic drains, detection fires even though the MIFO daemon
  // periodics never stop rescheduling themselves.
  const QuiescentPoint qp = await_quiescence(*em.net, /*deadline=*/30.0);
  ASSERT_TRUE(qp.reached);
  EXPECT_GT(qp.t, 0.004);
  ASSERT_EQ(qp.routers.size(), em.net->num_routers());
  EXPECT_TRUE(is_quiescent(*em.net));

  // The quiescent snapshot carries whatever alternates the daemon installed
  // while the bottleneck was congested; the paper's theorem says that state
  // is still loop-free, and the prover confirms it.
  const verify::LoopCheck check = verify::check_loop_freedom(qp.routers);
  EXPECT_TRUE(check.loop_free) << (check.cycles.empty()
                                       ? std::string("no cycle?")
                                       : check.cycles.front().to_string());
  EXPECT_GT(check.stats.destinations, 0u);
}

}  // namespace
}  // namespace mifo::chaos
