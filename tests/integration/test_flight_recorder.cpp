// Cross-shard flight recorder (docs/OBSERVABILITY.md): the merged timeline
// of a multi-worker run must be deterministically ordered and byte-identical
// across same-seed runs, hop paths must match the serial oracle's actual
// forwarding path, shard runtime histograms must appear in snapshots, and
// per-worker metric publishing must stay exactly-once. Named
// ShardedFlightRecorder.* so the scripts/check.sh TSan leg picks it up.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/artifact.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "testbed/emulation.hpp"
#include "testbed/fig11.hpp"
#include "testbed/sharded_emulation.hpp"
#include "topo/generator.hpp"

namespace mifo::testbed {
namespace {

/// A small Fig. 11 run with tracing on: two host pairs, MIFO on the
/// bottleneck AS, faults optional. Returns the merged timeline dump.
struct TracedRun {
  obs::Timeline timeline;
  dp::RouterCounters counters;
  std::vector<std::pair<std::string, std::uint64_t>> drops;
};

TracedRun run_sharded_fig11(std::size_t shards, bool inject_fault) {
  const Fig11Ids ids;
  const topo::AsGraph g = fig11_graph();
  std::vector<bool> expand(g.num_ases(), false);
  expand[ids.as3.value()] = true;
  expand[ids.as4.value()] = true;
  expand[ids.as6.value()] = true;

  EmulationBuilder builder(g, expand);
  builder.attach_host(ids.as1);
  builder.attach_host(ids.as2);
  builder.attach_host(ids.as5);
  builder.attach_host(ids.as5);
  ShardedEmulation em = builder.finalize(shards);
  em.enable_mifo({ids.as3}, dp::RouterConfig{}, 0.0050003);
  em.net->enable_tracing(4096);

  for (std::size_t pair = 0; pair < 2; ++pair) {
    dp::FlowParams fp;
    fp.src = em.hosts[pair].host;
    fp.dst = em.hosts[2 + pair].host;
    fp.size = 500 * 1000;
    fp.start = 1e-3 * static_cast<SimTime>(1 + pair);
    em.net->start_flow(fp);
  }

  if (inject_fault) {
    // Fault between parked run_until segments: pull a port on the first
    // router mid-run and restore it later — the chaos pattern on the
    // sharded plane.
    em.net->run_until(0.05);
    em.net->set_port_up(RouterId(0), PortId(0), false);
    em.net->run_until(0.15);
    em.net->set_port_up(RouterId(0), PortId(0), true);
  }
  em.net->run_until(60.0);

  TracedRun r;
  r.timeline = em.net->timeline();
  r.counters = em.net->total_counters();
  r.drops = em.net->drop_breakdown();
  return r;
}

TEST(ShardedFlightRecorder, TimelineByteIdenticalAcrossSameSeedRuns) {
  // The headline determinism claim: two 4-worker runs of the same scenario
  // (with mid-run fault injection) merge to byte-identical timelines.
  const TracedRun a = run_sharded_fig11(4, /*inject_fault=*/true);
  const TracedRun b = run_sharded_fig11(4, /*inject_fault=*/true);
  ASSERT_FALSE(a.timeline.events.empty());
  EXPECT_TRUE(a.timeline.epoch_monotone());
  const std::string dump_a = obs::to_json(a.timeline).dump();
  const std::string dump_b = obs::to_json(b.timeline).dump();
  EXPECT_EQ(dump_a, dump_b);
}

TEST(ShardedFlightRecorder, MergeIsTotallyOrderedByTraceOrder) {
  const TracedRun r = run_sharded_fig11(4, /*inject_fault=*/false);
  ASSERT_GT(r.timeline.events.size(), 1u);
  for (std::size_t i = 1; i < r.timeline.events.size(); ++i) {
    ASSERT_FALSE(obs::trace_order(r.timeline.events[i],
                                  r.timeline.events[i - 1]))
        << "merge order violated at event " << i;
  }
  // Cross-shard context: several shards contributed, and packet events
  // carry the injection context of their origin shard.
  bool multi_shard = false;
  for (const obs::TraceEvent& e : r.timeline.events) {
    multi_shard = multi_shard || e.shard != 0;
  }
  EXPECT_TRUE(multi_shard);
}

/// First-visit router order of one flow's packet-emission events — the
/// rendering rule tools/mifo-trace uses for hop-by-hop paths.
std::vector<std::uint32_t> hop_path(const std::vector<obs::TraceEvent>& evs,
                                    std::uint64_t flow) {
  std::vector<std::uint32_t> path;
  for (const obs::TraceEvent& e : evs) {
    if (e.flow != flow) continue;
    if (e.kind != obs::TraceKind::Forward &&
        e.kind != obs::TraceKind::Deflect && e.kind != obs::TraceKind::Encap &&
        e.kind != obs::TraceKind::Decap) {
      continue;
    }
    bool seen = false;
    for (const std::uint32_t r : path) seen = seen || r == e.router;
    if (!seen) path.push_back(e.router);
  }
  return path;
}

TEST(ShardedFlightRecorder, HopPathMatchesSerialOracle) {
  // One uncongested flow, no ties: the serial tracer's walk is the ground
  // truth for the emulator's forwarding path, and the 4-worker merged
  // timeline must spell out the same router sequence.
  const Fig11Ids ids;
  const topo::AsGraph g = fig11_graph();
  std::vector<bool> expand(g.num_ases(), false);
  expand[ids.as3.value()] = true;
  expand[ids.as4.value()] = true;
  expand[ids.as6.value()] = true;

  const auto run_one = [&](auto& em, auto& net) {
    dp::FlowParams fp;
    fp.src = em.hosts[0].host;
    fp.dst = em.hosts[1].host;
    fp.size = 100 * 1000;
    fp.start = 1e-3;
    const FlowId id = net.start_flow(fp);
    net.run_until(30.0);
    return id;
  };

  EmulationBuilder sb(g, expand);
  sb.attach_host(ids.as1);
  sb.attach_host(ids.as5);
  Emulation se = sb.finalize();
  obs::Tracer serial_tracer(4096);
  se.net->set_tracer(&serial_tracer);
  const FlowId serial_flow = run_one(se, *se.net);
  ASSERT_TRUE(se.net->flow(serial_flow).done);
  const auto serial_path =
      hop_path(serial_tracer.events(), serial_flow.value());
  ASSERT_GE(serial_path.size(), 2u);

  EmulationBuilder builder(g, expand);
  builder.attach_host(ids.as1);
  builder.attach_host(ids.as5);
  ShardedEmulation em = builder.finalize(4);
  em.net->enable_tracing(4096);
  const FlowId sharded_flow = run_one(em, *em.net);
  ASSERT_TRUE(em.net->sender_flow(sharded_flow).done);
  const auto sharded_path =
      hop_path(em.net->timeline().events, sharded_flow.value());
  EXPECT_EQ(sharded_path, serial_path);
}

TEST(ShardedFlightRecorder, FlowFilterAppliesToEveryWorkerTracer) {
  const Fig11Ids ids;
  const topo::AsGraph g = fig11_graph();
  std::vector<bool> expand(g.num_ases(), false);
  expand[ids.as3.value()] = true;

  EmulationBuilder builder(g, expand);
  builder.attach_host(ids.as1);
  builder.attach_host(ids.as5);
  builder.attach_host(ids.as2);
  builder.attach_host(ids.as5);
  ShardedEmulation em = builder.finalize(4);
  em.net->enable_tracing(4096);

  std::vector<FlowId> flows;
  for (std::size_t pair = 0; pair < 2; ++pair) {
    dp::FlowParams fp;
    fp.src = em.hosts[2 * pair].host;
    fp.dst = em.hosts[2 * pair + 1].host;
    fp.size = 200 * 1000;
    fp.start = 1e-3 * static_cast<SimTime>(1 + pair);
    flows.push_back(em.net->start_flow(fp));
  }
  em.net->set_trace_flow(flows[0].value());
  em.net->run_until(60.0);

  const obs::Timeline tl = em.net->timeline();
  ASSERT_FALSE(tl.events.empty());
  for (const obs::TraceEvent& e : tl.events) {
    if (e.flow == obs::kNoTraceFlow) continue;  // control-plane events pass
    EXPECT_EQ(e.flow, flows[0].value());
  }
}

TEST(ShardedFlightRecorder, WorkerStatsAndHistogramsPublish) {
  const TracedRun ignored = run_sharded_fig11(2, false);
  (void)ignored;

  const Fig11Ids ids;
  const topo::AsGraph g = fig11_graph();
  std::vector<bool> expand(g.num_ases(), false);
  expand[ids.as3.value()] = true;
  EmulationBuilder builder(g, expand);
  builder.attach_host(ids.as1);
  builder.attach_host(ids.as5);
  ShardedEmulation em = builder.finalize(4);
  dp::FlowParams fp;
  fp.src = em.hosts[0].host;
  fp.dst = em.hosts[1].host;
  fp.size = 200 * 1000;
  fp.start = 1e-3;
  em.net->start_flow(fp);
  em.net->run_until(30.0);

  // Every worker ran epochs and recorded window/barrier samples.
  ASSERT_EQ(em.net->worker_stats().size(), 4u);
  for (const auto& ws : em.net->worker_stats()) {
    EXPECT_GT(ws.epochs, 0u);
    EXPECT_GT(ws.epoch_window.total(), 0u);
    EXPECT_GT(ws.barrier_wait.total(), 0u);
  }

  obs::Registry reg;
  em.net->publish_metrics(reg, "engine=sharded");
  const obs::Snapshot snap = reg.snapshot();
  bool window_hist = false;
  bool wait_hist = false;
  for (const auto& h : snap.histograms) {
    window_hist = window_hist || h.name == "dp.epoch_window_seconds";
    wait_hist = wait_hist || h.name == "dp.barrier_wait_seconds";
  }
  EXPECT_TRUE(window_hist);
  EXPECT_TRUE(wait_hist);
  // Per-worker epoch counters, one label per shard.
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_GT(snap.value_or("dp.epochs", -1.0,
                            "engine=sharded,shard=" + std::to_string(s)),
              0.0)
        << "shard " << s;
  }
}

TEST(ShardedFlightRecorder, PublishTwiceDoesNotDoubleCount) {
  // The exactly-once regression: a snapshot taken right after a republish
  // (the barrier-rendezvous race the fix pins down) must equal the network
  // counters, and sharded totals must equal the serial oracle's.
  ScaledParams p;
  p.num_ases = 48;
  p.num_tier1 = 4;
  p.num_host_pairs = 8;
  p.flows_per_pair = 2;
  p.flow_size = 200 * 1000;
  p.time_cap = 30.0;
  p.mifo = true;

  const auto totals = [](std::size_t shards, ScaledParams params) {
    params.num_shards = shards;
    return run_scaled(params);
  };
  const ScaledResult serial = totals(0, p);
  const ScaledResult sharded = totals(4, p);
  EXPECT_EQ(serial.outcome_digest, sharded.outcome_digest);

  // Direct publish-twice check on a live sharded network.
  const Fig11Ids ids;
  const topo::AsGraph g = fig11_graph();
  std::vector<bool> expand(g.num_ases(), false);
  EmulationBuilder builder(g, expand);
  builder.attach_host(ids.as1);
  builder.attach_host(ids.as5);
  ShardedEmulation em = builder.finalize(4);
  dp::FlowParams fp;
  fp.src = em.hosts[0].host;
  fp.dst = em.hosts[1].host;
  fp.size = 100 * 1000;
  fp.start = 1e-3;
  em.net->start_flow(fp);
  em.net->run_until(30.0);

  obs::Registry reg;
  em.net->publish_metrics(reg, "phase=x");
  const double once = reg.snapshot().value_or("dp.delivered", -1.0,
                                              "phase=x");
  em.net->publish_metrics(reg, "phase=x");  // republish: must overwrite
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.value_or("dp.delivered", -1.0, "phase=x"), once);
  EXPECT_DOUBLE_EQ(snap.value_or("dp.delivered", -1.0, "phase=x"),
                   static_cast<double>(em.net->delivered_pkts()));
  // Histograms must not double either.
  for (const auto& h : snap.histograms) {
    if (h.name != "dp.epoch_window_seconds") continue;
    std::uint64_t worker_total = 0;
    for (const auto& ws : em.net->worker_stats()) {
      worker_total += ws.epoch_window.total();
    }
    EXPECT_EQ(h.hist.total(), worker_total);
  }
}

}  // namespace
}  // namespace mifo::testbed
