#include "sim/fluid_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "obs/registry.hpp"
#include "sim/metrics.hpp"
#include "topo/generator.hpp"
#include "traffic/traffic.hpp"

namespace mifo::sim {
namespace {

using topo::AsGraph;

AsGraph fig2a() {
  AsGraph g(4);
  g.add_provider_customer(AsId(1), AsId(0));
  g.add_provider_customer(AsId(2), AsId(0));
  g.add_provider_customer(AsId(3), AsId(0));
  g.add_peering(AsId(1), AsId(2));
  g.add_peering(AsId(2), AsId(3));
  g.add_peering(AsId(3), AsId(1));
  return g;
}

TEST(FluidSim, SingleFlowGetsLinkCapacity) {
  const AsGraph g = fig2a();
  SimConfig cfg;
  FluidSim sim(g, cfg);
  std::vector<traffic::FlowSpec> specs{{AsId(1), AsId(0), 10 * kMegaByte, 0.0}};
  const auto rec = sim.run(specs);
  ASSERT_EQ(rec.size(), 1u);
  ASSERT_TRUE(rec[0].completed);
  EXPECT_NEAR(rec[0].throughput(), 1000.0, 1.0);
  // 80 Mb at 1 Gbps = 0.08 s.
  EXPECT_NEAR(rec[0].finish, 0.08, 1e-6);
}

TEST(FluidSim, TwoFlowsShareUnderBgp) {
  const AsGraph g = fig2a();
  SimConfig cfg;
  cfg.mode = RoutingMode::Bgp;
  FluidSim sim(g, cfg);
  std::vector<traffic::FlowSpec> specs{
      {AsId(1), AsId(0), 10 * kMegaByte, 0.0},
      {AsId(1), AsId(0), 10 * kMegaByte, 0.0}};
  const auto rec = sim.run(specs);
  // Both share the 1->0 link at 500 Mbps.
  for (const auto& r : rec) {
    ASSERT_TRUE(r.completed);
    EXPECT_NEAR(r.throughput(), 500.0, 1.0);
    EXPECT_FALSE(r.used_alternative);
    EXPECT_EQ(r.path_switches, 0u);
  }
}

TEST(FluidSim, MifoOffloadsSecondFlowAtArrival) {
  const AsGraph g = fig2a();
  SimConfig cfg;
  cfg.mode = RoutingMode::Mifo;
  cfg.congest_threshold = 0.7;
  FluidSim sim(g, cfg);
  sim.set_deployment(std::vector<bool>(4, true));
  // First flow saturates 1->0; the second (slightly later) must deflect via
  // a peer and both finish at full rate.
  std::vector<traffic::FlowSpec> specs{
      {AsId(1), AsId(0), 10 * kMegaByte, 0.0},
      {AsId(1), AsId(0), 10 * kMegaByte, 0.001}};
  const auto rec = sim.run(specs);
  ASSERT_TRUE(rec[0].completed);
  ASSERT_TRUE(rec[1].completed);
  EXPECT_FALSE(rec[0].used_alternative);
  EXPECT_TRUE(rec[1].used_alternative);
  EXPECT_EQ(rec[1].path_switches, 1u);
  EXPECT_GT(rec[1].throughput(), 900.0);
  EXPECT_GT(rec[0].throughput(), 900.0);
}

TEST(FluidSim, MifoWithoutDeploymentEqualsBgp) {
  const AsGraph g = fig2a();
  std::vector<traffic::FlowSpec> specs{
      {AsId(1), AsId(0), 10 * kMegaByte, 0.0},
      {AsId(1), AsId(0), 10 * kMegaByte, 0.001}};
  SimConfig cfg;
  cfg.mode = RoutingMode::Mifo;
  FluidSim mifo(g, cfg);  // deployment defaults to all-false
  const auto rec = mifo.run(specs);
  cfg.mode = RoutingMode::Bgp;
  FluidSim bgp(g, cfg);
  const auto ref = bgp.run(specs);
  for (std::size_t i = 0; i < rec.size(); ++i) {
    EXPECT_NEAR(rec[i].throughput(), ref[i].throughput(), 1e-6);
    EXPECT_FALSE(rec[i].used_alternative);
  }
}

TEST(FluidSim, UnreachableFlowsMarked) {
  AsGraph g(3);
  g.add_peering(AsId(0), AsId(1));
  SimConfig cfg;
  FluidSim sim(g, cfg);
  std::vector<traffic::FlowSpec> specs{{AsId(0), AsId(2), kMegaByte, 0.0}};
  const auto rec = sim.run(specs);
  EXPECT_TRUE(rec[0].unreachable);
  EXPECT_FALSE(rec[0].completed);
}

TEST(FluidSim, MiroUsesSameClassAlternative) {
  // Diamond: src 0 reaches dest 4 through parallel providers 1,2,3 — the
  // alternatives share the default's (provider) class, so MIRO's strict
  // policy admits them.
  AsGraph g(5);
  g.add_provider_customer(AsId(1), AsId(0));
  g.add_provider_customer(AsId(2), AsId(0));
  g.add_provider_customer(AsId(3), AsId(0));
  g.add_provider_customer(AsId(1), AsId(4));
  g.add_provider_customer(AsId(2), AsId(4));
  g.add_provider_customer(AsId(3), AsId(4));
  SimConfig cfg;
  cfg.mode = RoutingMode::Miro;
  cfg.congest_threshold = 0.7;
  FluidSim sim(g, cfg);
  sim.set_deployment(std::vector<bool>(5, true));
  std::vector<traffic::FlowSpec> specs{
      {AsId(0), AsId(4), 10 * kMegaByte, 0.0},
      {AsId(0), AsId(4), 10 * kMegaByte, 0.001}};
  const auto rec = sim.run(specs);
  ASSERT_TRUE(rec[1].completed);
  EXPECT_TRUE(rec[1].used_alternative);
  EXPECT_GT(rec[1].throughput(), 900.0);
}

TEST(FluidSim, MiroStrictPolicyRefusesOtherClassAlternative) {
  // In fig2a the alternatives are peer-class while the default is a
  // customer route: MIRO must NOT use them (MIFO would).
  const AsGraph g = fig2a();
  SimConfig cfg;
  cfg.mode = RoutingMode::Miro;
  cfg.congest_threshold = 0.7;
  FluidSim sim(g, cfg);
  sim.set_deployment(std::vector<bool>(4, true));
  std::vector<traffic::FlowSpec> specs{
      {AsId(1), AsId(0), 10 * kMegaByte, 0.0},
      {AsId(1), AsId(0), 10 * kMegaByte, 0.001}};
  const auto rec = sim.run(specs);
  ASSERT_TRUE(rec[1].completed);
  EXPECT_FALSE(rec[1].used_alternative);
  EXPECT_NEAR(rec[1].throughput(), 500.0, 25.0);  // shares the default
}

TEST(FluidSim, CompletionConservesBytes) {
  // Every admitted flow eventually completes; total transferred equals the
  // offered volume.
  topo::GeneratorParams gp;
  gp.num_ases = 200;
  gp.seed = 6;
  const AsGraph g = topo::generate_topology(gp);
  traffic::TrafficParams tp;
  tp.num_flows = 2000;
  tp.dest_pool = 32;
  const auto specs = traffic::uniform_traffic(g, tp);
  SimConfig cfg;
  cfg.mode = RoutingMode::Mifo;
  FluidSim sim(g, cfg);
  sim.set_deployment(traffic::random_deployment(g.num_ases(), 0.5, 3));
  const auto rec = sim.run(specs);
  std::size_t done = 0;
  std::size_t unreachable = 0;
  for (const auto& r : rec) {
    if (r.completed) {
      ++done;
      EXPECT_GT(r.throughput(), 0.0);
      EXPECT_LE(r.throughput(), 1000.0 + 1e-6);
      EXPECT_GE(r.finish, r.spec.arrival);
    } else {
      EXPECT_TRUE(r.unreachable);
      ++unreachable;
    }
  }
  EXPECT_EQ(done + unreachable, rec.size());
  EXPECT_GT(done, rec.size() * 9 / 10);
}

TEST(FluidSim, MifoNeverWorseThanBgpOnAggregate) {
  topo::GeneratorParams gp;
  gp.num_ases = 300;
  gp.seed = 8;
  const AsGraph g = topo::generate_topology(gp);
  traffic::TrafficParams tp;
  tp.num_flows = 3000;
  tp.dest_pool = 16;  // concentrate to force congestion
  tp.seed = 21;
  const auto specs = traffic::uniform_traffic(g, tp);

  auto mean = [&](RoutingMode mode) {
    SimConfig cfg;
    cfg.mode = mode;
    FluidSim sim(g, cfg);
    sim.set_deployment(std::vector<bool>(g.num_ases(), true));
    return summarize(sim.run(specs)).mean_throughput;
  };
  const double bgp = mean(RoutingMode::Bgp);
  const double mifo = mean(RoutingMode::Mifo);
  EXPECT_GE(mifo, bgp * 0.98);  // never meaningfully worse
}

TEST(FluidSim, DeflectedFlowReturnsAfterDefaultClears) {
  // Flow A congests 1->0; flow B deflects via a peer. When A finishes, the
  // next re-evaluation tick walks B back to its default (hysteresis):
  // exactly two path switches (deflect + resume), the paper's dominant
  // <=2-switch population in Fig. 9.
  const AsGraph g = fig2a();
  SimConfig cfg;
  cfg.mode = RoutingMode::Mifo;
  cfg.reeval_interval = 0.01;
  FluidSim sim(g, cfg);
  sim.set_deployment(std::vector<bool>(4, true));
  std::vector<traffic::FlowSpec> specs{
      {AsId(1), AsId(0), 5 * kMegaByte, 0.0},    // A: done at 0.04
      {AsId(1), AsId(0), 50 * kMegaByte, 0.001}  // B: outlives A
  };
  const auto rec = sim.run(specs);
  ASSERT_TRUE(rec[1].completed);
  EXPECT_TRUE(rec[1].used_alternative);
  EXPECT_EQ(rec[1].path_switches, 2u);  // deflect at arrival, return once
  // B barely shares with A: overall throughput near line rate.
  EXPECT_GT(rec[1].throughput(), 900.0);
}

TEST(FluidSim, LateCongestionDeflectsEstablishedFlow) {
  // B starts alone on the default; A floods the same link later; a re-eval
  // tick must move B (or keep both at 500 if deflection is impossible —
  // here peers exist, so B moves).
  const AsGraph g = fig2a();
  SimConfig cfg;
  cfg.mode = RoutingMode::Mifo;
  cfg.reeval_interval = 0.01;
  FluidSim sim(g, cfg);
  sim.set_deployment(std::vector<bool>(4, true));
  std::vector<traffic::FlowSpec> specs{
      {AsId(1), AsId(0), 50 * kMegaByte, 0.0},   // B: long-lived
      {AsId(1), AsId(0), 50 * kMegaByte, 0.05}   // A: arrives later
  };
  const auto rec = sim.run(specs);
  ASSERT_TRUE(rec[0].completed);
  ASSERT_TRUE(rec[1].completed);
  // One of them ends up on an alternative and both finish near line rate.
  EXPECT_TRUE(rec[0].used_alternative || rec[1].used_alternative);
  EXPECT_GT(rec[0].throughput(), 700.0);
  EXPECT_GT(rec[1].throughput(), 700.0);
}

TEST(FluidSim, ParallelRouteWarmupIsBitIdenticalToSerial) {
  // The threaded route-cache warmup must not change a single bit of the
  // simulation outcome: compute_routes is pure per destination, so warming
  // with 1 worker (lazy serial path) and with many workers must agree
  // exactly, for every routing mode.
  topo::GeneratorParams gp;
  gp.num_ases = 250;
  gp.seed = 11;
  const AsGraph g = topo::generate_topology(gp);
  traffic::TrafficParams tp;
  tp.num_flows = 2500;
  tp.dest_pool = 48;
  tp.seed = 9;
  const auto specs = traffic::uniform_traffic(g, tp);
  const auto deployed = traffic::random_deployment(g.num_ases(), 0.5, 3);

  for (const auto mode :
       {RoutingMode::Bgp, RoutingMode::Miro, RoutingMode::Mifo}) {
    SimConfig cfg;
    cfg.mode = mode;

    cfg.threads = 1;  // serial lazy path
    FluidSim serial(g, cfg);
    serial.set_deployment(deployed);
    const auto ser = serial.run(specs);

    cfg.threads = 8;  // parallel pre-warm
    FluidSim parallel(g, cfg);
    parallel.set_deployment(deployed);
    const auto par = parallel.run(specs);

    ASSERT_EQ(ser.size(), par.size());
    for (std::size_t i = 0; i < ser.size(); ++i) {
      EXPECT_EQ(ser[i].finish, par[i].finish) << i;  // bitwise, no tolerance
      EXPECT_EQ(ser[i].completed, par[i].completed) << i;
      EXPECT_EQ(ser[i].unreachable, par[i].unreachable) << i;
      EXPECT_EQ(ser[i].path_switches, par[i].path_switches) << i;
      EXPECT_EQ(ser[i].used_alternative, par[i].used_alternative) << i;
    }

    // The warmed CSR stores themselves must also be element-identical:
    // same flattened bytes, same best/RIB/path views for every destination
    // the traffic touches.
    std::unordered_set<std::uint32_t> dests;
    for (const auto& f : specs) dests.insert(f.dst.value());
    for (const std::uint32_t d : dests) {
      const bgp::RouteStore& rs = serial.routes_for(AsId(d));
      const bgp::RouteStore& rp = parallel.routes_for(AsId(d));
      ASSERT_EQ(rs.bytes(), rp.bytes()) << "dest " << d;
      ASSERT_EQ(rs.num_reachable(), rp.num_reachable()) << "dest " << d;
      const auto bs = rs.all_best();
      const auto bp = rp.all_best();
      ASSERT_TRUE(std::equal(bs.begin(), bs.end(), bp.begin(), bp.end()))
          << "dest " << d;
      for (std::uint32_t as = 0; as < g.num_ases(); ++as) {
        const auto ra = rs.rib(AsId(as));
        const auto rb = rp.rib(AsId(as));
        ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
            << "dest " << d << " as " << as;
        const auto pa = rs.path(AsId(as));
        const auto pb = rp.path(AsId(as));
        ASSERT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()))
            << "dest " << d << " as " << as;
      }
    }
  }
}

TEST(FluidSim, RouteCacheBytesGaugeTracksWarmedStores) {
  // sim.route_cache_bytes reports the resident CSR footprint: zero after
  // attach, equal to the sum of the warmed stores' bytes() once the cache
  // is populated — whether lazily (routes_for) or via the threaded warmup.
  topo::GeneratorParams gp;
  gp.num_ases = 120;
  gp.seed = 21;
  const AsGraph g = topo::generate_topology(gp);

  SimConfig cfg;
  cfg.mode = RoutingMode::Mifo;
  cfg.threads = 4;
  FluidSim sim(g, cfg);
  obs::Registry reg;
  sim.attach_registry(reg, "arm=test");
  EXPECT_DOUBLE_EQ(
      reg.snapshot().value_or("sim.route_cache_bytes", -1.0, "arm=test"),
      0.0);

  std::size_t expect = 0;
  for (std::uint32_t d = 0; d < 6; ++d) {
    expect += sim.routes_for(AsId(d)).bytes();
  }
  EXPECT_GT(expect, 0u);
  EXPECT_DOUBLE_EQ(
      reg.snapshot().value_or("sim.route_cache_bytes", -1.0, "arm=test"),
      static_cast<double>(expect));

  // A run() warms the remaining destinations in parallel; the gauge keeps
  // counting every resident store.
  traffic::TrafficParams tp;
  tp.num_flows = 200;
  tp.dest_pool = 16;
  tp.seed = 5;
  sim.set_deployment(traffic::random_deployment(g.num_ases(), 0.5, 3));
  const auto records = sim.run(traffic::uniform_traffic(g, tp));
  EXPECT_EQ(records.size(), tp.num_flows);
  EXPECT_GE(
      reg.snapshot().value_or("sim.route_cache_bytes", -1.0, "arm=test"),
      static_cast<double>(expect));
}

TEST(FluidSim, RepeatedRunsOnOneSimAreIdentical) {
  // The reusable MaxMinWorkspace and warmed route cache carry state across
  // run() calls; that state must never leak into results.
  const AsGraph g = fig2a();
  SimConfig cfg;
  cfg.mode = RoutingMode::Mifo;
  FluidSim sim(g, cfg);
  sim.set_deployment(std::vector<bool>(4, true));
  std::vector<traffic::FlowSpec> specs{
      {AsId(1), AsId(0), 10 * kMegaByte, 0.0},
      {AsId(1), AsId(0), 10 * kMegaByte, 0.001}};
  const auto first = sim.run(specs);
  const auto second = sim.run(specs);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].finish, second[i].finish);
    EXPECT_EQ(first[i].path_switches, second[i].path_switches);
  }
}

TEST(FluidSim, RoutesForCachesPerDestination) {
  const AsGraph g = fig2a();
  SimConfig cfg;
  FluidSim sim(g, cfg);
  const auto& a = sim.routes_for(AsId(0));
  const auto& b = sim.routes_for(AsId(0));
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.dest(), AsId(0));
}

}  // namespace
}  // namespace mifo::sim
