// Streaming event loop (FluidSim::run_stream): agreement with the batch
// run() on BGP, goodput conservation, per-event differential checking
// against the from-scratch oracle, chaos x workload composition, and
// bit-reproducibility across thread settings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "chaos/fluid.hpp"
#include "chaos/plan.hpp"
#include "obs/registry.hpp"
#include "sim/fluid_sim.hpp"
#include "topo/generator.hpp"
#include "traffic/traffic.hpp"
#include "traffic/workload.hpp"

namespace mifo::sim {
namespace {

using topo::AsGraph;

AsGraph stream_graph(std::size_t n = 200, std::uint64_t seed = 11) {
  topo::GeneratorParams gp;
  gp.num_ases = n;
  gp.num_tier1 = 5;
  gp.seed = seed;
  return topo::generate_topology(gp);
}

traffic::WorkloadParams small_workload(std::uint64_t seed = 7) {
  traffic::WorkloadParams p;
  p.seed = seed;
  p.arrival_rate = 150.0;
  p.duration = 4.0;
  p.size_min = 2 * kMegaByte;
  p.size_max = 200 * kMegaByte;
  p.max_endpoints = 64;
  return p;
}

TEST(RunStream, MatchesBatchRunUnderBgp) {
  const AsGraph g = stream_graph();
  traffic::TrafficParams tp;
  tp.num_flows = 80;
  tp.arrival_rate = 120.0;
  tp.flow_size = 20 * kMegaByte;
  tp.dest_pool = 24;
  tp.seed = 5;
  const auto specs = traffic::uniform_traffic(g, tp);

  SimConfig cfg;
  cfg.mode = RoutingMode::Bgp;
  FluidSim batch(g, cfg);
  const auto want = batch.run(specs);

  FluidSim stream(g, cfg);
  StreamConfig sc;
  const StreamResult res = stream.run_stream(specs, sc);

  ASSERT_EQ(res.records.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(res.records[i].unreachable, want[i].unreachable) << i;
    ASSERT_EQ(res.records[i].completed, want[i].completed) << i;
    if (!want[i].completed) continue;
    EXPECT_NEAR(res.records[i].finish, want[i].finish, 1e-6) << i;
    EXPECT_NEAR(res.records[i].throughput(), want[i].throughput(),
                1e-4 * want[i].throughput() + 1e-6)
        << i;
  }
  EXPECT_FALSE(res.truncated);
  EXPECT_GT(res.peak_active, 1u);
}

TEST(RunStream, GoodputSeriesConservesDeliveredBytes) {
  const AsGraph g = stream_graph(300, 13);
  auto wp = small_workload(3);
  wp.arrival_rate = 200.0;
  wp.duration = 5.0;
  traffic::WorkloadEngine eng(g, wp);

  SimConfig cfg;
  cfg.mode = RoutingMode::Bgp;
  FluidSim sim(g, cfg);
  StreamConfig sc;
  sc.epoch = 0.25;
  const StreamResult res = sim.run_stream(eng, sc);

  // Every generated flow is in the records; the run drains, so each
  // reachable flow completed.
  EXPECT_EQ(res.records.size(), eng.generated());
  double delivered = 0.0;
  for (const auto& r : res.records) {
    if (r.unreachable) continue;
    ASSERT_TRUE(r.completed);
    delivered += to_megabits(r.spec.size);
  }
  ASSERT_GT(delivered, 0.0);

  // The epoch series integrates Σ rates: goodput_i * length_i must add up
  // to exactly the delivered megabits (edges are cumulative timestamps).
  double integrated = 0.0;
  SimTime prev = 0.0;
  for (const auto& s : res.load) {
    ASSERT_GT(s.t, prev);
    integrated += s.goodput_mbps * (s.t - prev);
    EXPECT_GT(s.offered_mbps, 0.0);  // engine-driven run reports offered load
    prev = s.t;
  }
  EXPECT_NEAR(integrated / delivered, 1.0, 1e-6);

  // Arrival/completion epoch tallies cover the whole population too.
  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
  for (const auto& s : res.load) {
    arrivals += s.arrivals;
    completions += s.completions;
  }
  std::uint64_t reachable = 0;
  for (const auto& r : res.records) reachable += r.unreachable ? 0 : 1;
  EXPECT_EQ(arrivals, reachable);
  EXPECT_EQ(completions, reachable);
}

TEST(RunStream, DifferentialCleanThroughChaosAndFlashCrowd) {
  const AsGraph g = stream_graph();
  auto wp = small_workload(17);
  traffic::FlashCrowd fc;
  fc.start = 1.0;
  fc.duration = 1.5;
  fc.rate_multiplier = 2.0;
  fc.hotspot_share = 0.4;
  wp.flash_crowds.push_back(fc);
  traffic::WorkloadEngine eng(g, wp);

  SimConfig cfg;
  cfg.mode = RoutingMode::Mifo;
  FluidSim sim(g, cfg);
  sim.set_deployment(std::vector<bool>(g.num_ases(), true));

  // Compose a failure with the flash crowd: degrade and flap links inside
  // the crowd window via the chaos bridge.
  chaos::Plan plan;
  plan.duration = 1.0;
  std::size_t planned = 0;
  for (std::uint32_t a = 0; a < g.num_ases() && planned < 3; ++a) {
    for (const auto& nb : g.neighbors(AsId(a))) {
      if (nb.as.value() > a) {
        chaos::Event down;
        down.t = 0.1 + 0.2 * static_cast<double>(planned);
        down.kind = planned == 0 ? chaos::EventKind::Degrade
                                 : chaos::EventKind::LinkDown;
        down.value = 0.25;
        down.a = AsId(a);
        down.b = nb.as;
        plan.events.push_back(down);
        chaos::Event up = down;
        up.t = down.t + 0.4;
        up.kind = planned == 0 ? chaos::EventKind::Restore
                               : chaos::EventKind::LinkUp;
        plan.events.push_back(up);
        ++planned;
        break;
      }
    }
  }
  ASSERT_EQ(planned, 3u);
  plan.normalize();
  const std::size_t applied =
      chaos::apply_to_fluid_window(plan, g, sim, fc.start, fc.duration);
  EXPECT_EQ(applied, 6u);

  StreamConfig sc;
  sc.differential = true;  // oracle after EVERY arrival/departure/reroute
  const StreamResult res = sim.run_stream(eng, sc);

  EXPECT_FALSE(res.truncated);
  EXPECT_GT(res.solver.events, 0u);
  // At least one oracle check per solver event (capacity events that touch
  // idle links are checked too, so checks can exceed events).
  EXPECT_GE(res.solver.differential_checks, res.solver.events);
  EXPECT_EQ(res.solver.differential_mismatches, 0u);
  // Component-local re-solves must beat the from-scratch scan even at this
  // small scale.
  EXPECT_GT(res.solver.reduction(), 1.0);
  EXPECT_GT(res.peak_active, 0u);
}

TEST(RunStream, ThreadSettingKeepsResultsBitIdentical) {
  const AsGraph g = stream_graph();
  SimConfig cfg;
  cfg.mode = RoutingMode::Mifo;
  cfg.threads = 1;
  const auto deployed = traffic::random_deployment(g.num_ases(), 0.8, 3);

  const auto run_once = [&](std::size_t threads) {
    auto wp = small_workload(23);
    traffic::WorkloadEngine eng(g, wp);
    SimConfig c = cfg;
    c.threads = threads;
    FluidSim sim(g, c);
    sim.set_deployment(deployed);
    StreamConfig sc;
    return sim.run_stream(eng, sc);
  };
  const StreamResult a = run_once(1);
  const StreamResult b = run_once(4);

  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].finish, b.records[i].finish);  // bitwise double
    EXPECT_EQ(a.records[i].completed, b.records[i].completed);
    EXPECT_EQ(a.records[i].path_switches, b.records[i].path_switches);
    EXPECT_EQ(a.records[i].used_alternative, b.records[i].used_alternative);
  }
  ASSERT_EQ(a.load.size(), b.load.size());
  for (std::size_t i = 0; i < a.load.size(); ++i) {
    EXPECT_EQ(a.load[i].goodput_mbps, b.load[i].goodput_mbps);
    EXPECT_EQ(a.load[i].active_flows, b.load[i].active_flows);
  }
  EXPECT_EQ(a.peak_active, b.peak_active);
  EXPECT_EQ(a.solver.events, b.solver.events);
  EXPECT_EQ(a.solver.incidences_resolved, b.solver.incidences_resolved);
}

TEST(RunStream, MaxTimeTruncatesOpenLoopRun) {
  const AsGraph g = stream_graph();
  auto wp = small_workload(29);
  wp.duration = 30.0;
  wp.arrival_rate = 300.0;
  traffic::WorkloadEngine eng(g, wp);

  SimConfig cfg;
  cfg.mode = RoutingMode::Bgp;
  FluidSim sim(g, cfg);
  StreamConfig sc;
  sc.max_time = 1.0;
  const StreamResult res = sim.run_stream(eng, sc);

  EXPECT_TRUE(res.truncated);
  EXPECT_NEAR(res.duration, 1.0, 1e-9);
  std::size_t incomplete = 0;
  for (const auto& r : res.records) {
    if (!r.completed && !r.unreachable) ++incomplete;
    if (r.completed) {
      EXPECT_LE(r.finish, 1.0 + 1e-9);
    }
  }
  EXPECT_GT(incomplete, 0u);
  for (const auto& s : res.load) EXPECT_LE(s.t, 1.0 + 1e-9);
}

TEST(RunStream, SolverCountersFlowIntoRegistry) {
  const AsGraph g = stream_graph();
  auto wp = small_workload(31);
  wp.duration = 2.0;
  traffic::WorkloadEngine eng(g, wp);

  SimConfig cfg;
  cfg.mode = RoutingMode::Mifo;
  FluidSim sim(g, cfg);
  sim.set_deployment(std::vector<bool>(g.num_ases(), true));
  obs::Registry reg;
  sim.attach_registry(reg, "arm=stream");
  StreamConfig sc;
  sc.differential = true;
  const StreamResult res = sim.run_stream(eng, sc);

  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.value_or("sim.solver_runs", -1.0, "arm=stream"),
                   static_cast<double>(res.solver.events));
  EXPECT_DOUBLE_EQ(snap.value_or("sim.solver_components", -1.0, "arm=stream"),
                   static_cast<double>(res.solver.components_solved));
  EXPECT_DOUBLE_EQ(snap.value_or("sim.solver_incidences", -1.0, "arm=stream"),
                   static_cast<double>(res.solver.incidences_resolved));
  EXPECT_DOUBLE_EQ(
      snap.value_or("sim.solver_full_incidences", -1.0, "arm=stream"),
      static_cast<double>(res.solver.full_incidences));
  EXPECT_DOUBLE_EQ(snap.value_or("sim.solver_diff_checks", -1.0, "arm=stream"),
                   static_cast<double>(res.solver.differential_checks));
  // Epoch gauges hold the last-emitted values.
  EXPECT_GE(snap.value_or("sim.active_flows", -1.0, "arm=stream"), 0.0);
  EXPECT_GE(snap.value_or("sim.offered_load_mbps", -1.0, "arm=stream"), 0.0);
}

TEST(RunStream, SolveLatencyRecordingCoversEveryEvent) {
  const AsGraph g = stream_graph();
  auto wp = small_workload(37);
  wp.duration = 1.5;
  traffic::WorkloadEngine eng(g, wp);

  SimConfig cfg;
  cfg.mode = RoutingMode::Bgp;
  FluidSim sim(g, cfg);
  StreamConfig sc;
  sc.measure_solve_latency = true;
  const StreamResult res = sim.run_stream(eng, sc);

  EXPECT_EQ(res.solve_seconds.size(), res.solver.events);
  for (const double s : res.solve_seconds) EXPECT_GE(s, 0.0);
}

}  // namespace
}  // namespace mifo::sim
