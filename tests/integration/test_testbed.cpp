// Integration tests of the emulation builder and the Fig. 11/12 experiment.

#include <gtest/gtest.h>

#include "bgp/routing.hpp"
#include "common/parallel_for.hpp"
#include "oracle/route_reference.hpp"
#include "testbed/fig11.hpp"

namespace mifo::testbed {
namespace {

TEST(Fig11Graph, MatchesPaperTopology) {
  const auto g = fig11_graph();
  const Fig11Ids ids;
  EXPECT_EQ(g.num_ases(), 6u);
  EXPECT_EQ(g.num_adjacencies(), 6u);
  EXPECT_EQ(g.rel(ids.as3, ids.as1), topo::Rel::Customer);
  EXPECT_EQ(g.rel(ids.as3, ids.as4), topo::Rel::Peer);
  EXPECT_EQ(g.rel(ids.as3, ids.as6), topo::Rel::Peer);
  EXPECT_EQ(g.rel(ids.as4, ids.as5), topo::Rel::Customer);
  EXPECT_EQ(g.rel(ids.as6, ids.as5), topo::Rel::Customer);
}

TEST(Fig11Graph, DefaultPathsGoThroughAs4) {
  const auto g = fig11_graph();
  const Fig11Ids ids;
  const auto routes = bgp::compute_routes(g, ids.as5);
  // AS3 learns two peer routes (via AS4 and AS6); AS4 wins the id
  // tie-break, reproducing the paper's default 3 -> 4 -> 5.
  EXPECT_EQ(routes.best(ids.as3).next_hop, ids.as4);
  const auto path = bgp::as_path(g, routes, ids.as1);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path[1], ids.as3);
  EXPECT_EQ(path[2], ids.as4);
  // And the RIB holds the alternative via AS6.
  const auto rib = bgp::rib_of(g, routes, ids.as3);
  ASSERT_EQ(rib.size(), 2u);
  EXPECT_EQ(rib[1].next_hop, ids.as6);
}

TEST(EmulationBuilder, ElevenRoutersLikeThePaper) {
  const auto g = fig11_graph();
  const Fig11Ids ids;
  std::vector<bool> expand(6, false);
  expand[ids.as3.value()] = true;
  expand[ids.as4.value()] = true;
  expand[ids.as6.value()] = true;
  EmulationBuilder b(g, expand);
  b.attach_host(ids.as1);
  b.attach_host(ids.as2);
  b.attach_host(ids.as5);
  b.attach_host(ids.as5);
  Emulation em = b.finalize();
  EXPECT_EQ(em.net->num_routers(), 11u);  // 1+1+4+2+2
  EXPECT_EQ(em.net->num_hosts(), 4u);
  // AS3's wiring: 4 egresses, full mesh intra (4 routers -> 12 directed).
  const auto& w3 = em.wirings[ids.as3.value()];
  EXPECT_EQ(w3.routers.size(), 4u);
  EXPECT_EQ(w3.egresses.size(), 4u);
  EXPECT_EQ(w3.intra.size(), 12u);
}

TEST(EmulationBuilder, FibsRouteEveryHostFromEveryRouter) {
  const auto g = fig11_graph();
  const Fig11Ids ids;
  std::vector<bool> expand(6, false);
  expand[ids.as3.value()] = true;
  EmulationBuilder b(g, expand);
  const HostId h = b.attach_host(ids.as5);
  Emulation em = b.finalize();
  const dp::Addr addr = em.attachment(h).addr;
  for (std::uint32_t r = 0; r < em.net->num_routers(); ++r) {
    EXPECT_TRUE(
        em.net->router(RouterId(r)).fib().lookup(addr).has_value())
        << "router " << r;
  }
}

TEST(Fig12, MifoBeatsBgpAggregateSubstantially) {
  Fig12Params params;
  params.flow_size = 2 * kMegaByte;  // fast CI run
  params.flows_per_pair = 6;
  params.mifo = false;
  const auto bgp = run_fig12(params);
  params.mifo = true;
  const auto mifo = run_fig12(params);

  ASSERT_EQ(bgp.fct.size(), 12u);
  ASSERT_EQ(mifo.fct.size(), 12u);
  // Paper: +81%. Emulation: expect at least +40% on this scaled workload.
  EXPECT_GT(mifo.aggregate_gbps, bgp.aggregate_gbps * 1.4);
  // MIFO actually used the machinery.
  EXPECT_GT(mifo.counters.deflected, 0u);
  EXPECT_GT(mifo.counters.encapsulated, 0u);
  EXPECT_EQ(bgp.counters.deflected, 0u);
  // All flows complete sooner in wall-clock.
  EXPECT_LT(mifo.total_time, bgp.total_time);
}

TEST(Fig12, FlowCompletionTimesImprove) {
  Fig12Params params;
  params.flow_size = 2 * kMegaByte;
  params.flows_per_pair = 6;
  params.mifo = false;
  const auto bgp = run_fig12(params);
  params.mifo = true;
  const auto mifo = run_fig12(params);
  auto mean = [](const std::vector<double>& xs) {
    double s = 0;
    for (double x : xs) s += x;
    return s / static_cast<double>(xs.size());
  };
  EXPECT_LT(mean(mifo.fct), mean(bgp.fct));
}

TEST(Fig12, ThroughputTraceSumsToTransferredBytes) {
  Fig12Params params;
  params.flow_size = kMegaByte;
  params.flows_per_pair = 3;
  params.mifo = true;
  params.bucket = 0.05;
  const auto res = run_fig12(params);
  double gb_from_trace = 0.0;
  for (const double gbps : res.throughput_gbps) {
    gb_from_trace += gbps * params.bucket;  // gigabits
  }
  const double offered =
      to_megabits(2 * 3 * params.flow_size) / 1000.0;  // gigabits
  EXPECT_NEAR(gb_from_trace, offered, offered * 0.01);
}

TEST(Fig12, ParallelArmsAreIdenticalToSerial) {
  // bench_fig12_testbed runs the BGP and MIFO arms concurrently through
  // bench::run_arms; each arm owns its emulation, so running the same
  // experiment on parallel threads must reproduce the serial results exactly.
  Fig12Params params;
  params.flow_size = kMegaByte;
  params.flows_per_pair = 3;
  params.link_sample_interval = 0.05;

  std::vector<Fig12Result> serial(2);
  std::vector<Fig12Result> parallel(2);
  for (std::size_t i = 0; i < 2; ++i) {
    Fig12Params p = params;
    p.mifo = i == 1;
    serial[i] = run_fig12(p);
  }
  parallel_for(2, 2, [&](std::size_t i) {
    Fig12Params p = params;
    p.mifo = i == 1;
    parallel[i] = run_fig12(p);
  });

  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_EQ(serial[i].fct, parallel[i].fct) << "arm " << i;  // bitwise
    ASSERT_EQ(serial[i].throughput_gbps, parallel[i].throughput_gbps);
    EXPECT_EQ(serial[i].total_time, parallel[i].total_time);
    EXPECT_EQ(serial[i].aggregate_gbps, parallel[i].aggregate_gbps);
    EXPECT_EQ(serial[i].counters.forwarded, parallel[i].counters.forwarded);
    EXPECT_EQ(serial[i].counters.deflected, parallel[i].counters.deflected);
    EXPECT_EQ(serial[i].counters.encapsulated,
              parallel[i].counters.encapsulated);
    ASSERT_EQ(serial[i].link_samples.size(), parallel[i].link_samples.size());
    for (std::size_t k = 0; k < serial[i].link_samples.size(); ++k) {
      EXPECT_EQ(serial[i].link_samples[k].utilization,
                parallel[i].link_samples[k].utilization);
    }
  }
}

TEST(Fig12, LinkSamplingLandsInResult) {
  Fig12Params params;
  params.flow_size = kMegaByte;
  params.flows_per_pair = 3;
  params.mifo = true;
  params.link_sample_interval = 0.05;
  const auto res = run_fig12(params);
  ASSERT_FALSE(res.link_samples.empty());
  // Samples arrive in non-decreasing time order and cover the run.
  for (std::size_t i = 1; i < res.link_samples.size(); ++i) {
    EXPECT_LE(res.link_samples[i - 1].t, res.link_samples[i].t);
  }
  EXPECT_GT(res.link_samples.back().t, 0.0);
  // Off by default: no trace without the opt-in.
  params.link_sample_interval = 0.0;
  EXPECT_TRUE(run_fig12(params).link_samples.empty());
}

TEST(Fig12, NoForwardingAnomalies) {
  Fig12Params params;
  params.flow_size = kMegaByte;
  params.flows_per_pair = 3;
  params.mifo = true;
  const auto res = run_fig12(params);
  EXPECT_EQ(res.counters.ttl_drops, 0u);
  EXPECT_EQ(res.counters.no_route_drops, 0u);
  // Deflections at Rd target the iBGP peer Ra and pass its check: no
  // valley drops in this topology (the tag is set — traffic entered AS3
  // from customers).
  EXPECT_EQ(res.counters.valley_drops, 0u);
}

}  // namespace
}  // namespace mifo::testbed
