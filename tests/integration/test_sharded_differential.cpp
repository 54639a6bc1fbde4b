// Serial-vs-sharded differential: the retained serial dp::Network is the
// oracle (docs/VERIFICATION.md); the sharded plane must reproduce its
// delivered-packet sets, drop breakdowns and conservation accounting
// bit-for-bit at every worker count. Run under TSan by scripts/check.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bgp/ibgp.hpp"
#include "testbed/fig11.hpp"
#include "testbed/sharded_emulation.hpp"
#include "topo/generator.hpp"

namespace mifo::testbed {
namespace {

ScaledParams small_scaled_params() {
  // TSan-friendly scale: ~50 ASes, 16 flows; finishes in a few seconds of
  // wall clock even instrumented.
  ScaledParams p;
  p.num_ases = 48;
  p.num_tier1 = 4;
  p.num_host_pairs = 8;
  p.flows_per_pair = 2;
  p.flow_size = 200 * 1000;
  p.time_cap = 30.0;
  p.mifo = true;
  return p;
}

TEST(ShardedDifferential, ScaledEmulationMatchesSerialOracle) {
  ScaledParams p = small_scaled_params();
  p.num_shards = 0;
  const ScaledResult oracle = run_scaled(p);
  ASSERT_EQ(oracle.flows_done, oracle.flows_total);
  ASSERT_GT(oracle.delivered_pkts, 0u);

  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    p.num_shards = shards;
    const ScaledResult r = run_scaled(p);

    EXPECT_EQ(r.num_routers, oracle.num_routers);
    EXPECT_EQ(r.flows_done, r.flows_total);
    EXPECT_EQ(r.injected_pkts, oracle.injected_pkts);
    EXPECT_EQ(r.delivered_pkts, oracle.delivered_pkts);
    EXPECT_EQ(r.ring_overflow, 0u);
    EXPECT_EQ(r.last_completion, oracle.last_completion);
    // Sharded breakdown = serial buckets + trailing ring_overflow.
    ASSERT_EQ(r.drops.size(), oracle.drops.size() + 1);
    for (std::size_t i = 0; i < oracle.drops.size(); ++i) {
      EXPECT_EQ(r.drops[i].first, oracle.drops[i].first);
      EXPECT_EQ(r.drops[i].second, oracle.drops[i].second) << r.drops[i].first;
    }
    // The digest folds in every flow's (done, end_time, receiver progress):
    // equal digests == identical per-flow outcomes, not just equal totals.
    EXPECT_EQ(r.outcome_digest, oracle.outcome_digest);
  }
}

/// Owner-replica FIB entries (default and alt port) of every router for
/// every host prefix.
void expect_same_fibs(const Emulation& se, const ShardedEmulation& pe) {
  for (std::size_t r = 0; r < se.net->num_routers(); ++r) {
    const RouterId id(static_cast<std::uint32_t>(r));
    for (const HostAttachment& h : se.hosts) {
      const auto want = se.net->router(id).fib().lookup(h.addr);
      const auto got = pe.net->router(id).fib().lookup(h.addr);
      ASSERT_EQ(got.has_value(), want.has_value()) << "r" << r;
      if (!want) continue;
      EXPECT_EQ(got->out_port, want->out_port) << "r" << r;
      EXPECT_EQ(got->alt_port, want->alt_port) << "r" << r;
    }
  }
}

TEST(ShardedDifferential, BuilderWiresBothEnginesIdentically) {
  // The digests compare the engines only through outcomes; this compares
  // what EmulationBuilder built. One builder, finalize() vs finalize(k):
  // wirings, hosts, daemon RIB knowledge and FIBs must be element-identical,
  // and after three daemon intervals with no traffic every daemon must have
  // elected and programmed the same alternatives — a tick registered on a
  // shard that does not own the AS, or not at all, leaves them unset.
  const ScaledParams p = small_scaled_params();
  topo::GeneratorParams gp;
  gp.num_ases = p.num_ases;
  gp.num_tier1 = p.num_tier1;
  gp.seed = p.seed;
  const topo::AsGraph g = topo::generate_topology(gp);
  const std::size_t n = g.num_ases();
  EmulationBuilder builder(g, scaled_expand_mask(g, p.expand_degree_cap));
  constexpr std::size_t kHosts = 10;
  for (std::size_t k = 0; k < kHosts; ++k) {
    builder.attach_host(AsId(static_cast<std::uint32_t>(k * (n - 1) /
                                                        (kHosts - 1))));
  }
  std::vector<AsId> all_ases;
  for (std::size_t i = 0; i < n; ++i) {
    all_ases.push_back(AsId(static_cast<std::uint32_t>(i)));
  }
  constexpr SimTime kInterval = 0.01;

  for (const std::size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Emulation se = builder.finalize();
    ShardedEmulation pe = builder.finalize(shards);
    ASSERT_GT(se.net->num_routers(), n);  // the expansion mask took effect

    ASSERT_EQ(pe.wirings.size(), se.wirings.size());
    for (std::size_t i = 0; i < se.wirings.size(); ++i) {
      const core::AsWiring& want = se.wirings[i];
      const core::AsWiring& got = pe.wirings[i];
      EXPECT_EQ(got.as, want.as);
      EXPECT_EQ(got.routers, want.routers);
      ASSERT_EQ(got.egresses.size(), want.egresses.size());
      for (std::size_t e = 0; e < want.egresses.size(); ++e) {
        EXPECT_EQ(got.egresses[e].neighbor, want.egresses[e].neighbor);
        EXPECT_EQ(got.egresses[e].router, want.egresses[e].router);
        EXPECT_EQ(got.egresses[e].port, want.egresses[e].port);
        EXPECT_EQ(got.egresses[e].rel, want.egresses[e].rel);
      }
      ASSERT_EQ(got.intra.size(), want.intra.size());
      for (std::size_t e = 0; e < want.intra.size(); ++e) {
        EXPECT_EQ(got.intra[e].from, want.intra[e].from);
        EXPECT_EQ(got.intra[e].to, want.intra[e].to);
        EXPECT_EQ(got.intra[e].port, want.intra[e].port);
      }
    }

    ASSERT_EQ(pe.hosts.size(), kHosts);
    ASSERT_EQ(se.hosts.size(), kHosts);
    for (std::size_t h = 0; h < kHosts; ++h) {
      EXPECT_EQ(pe.hosts[h].host, se.hosts[h].host);
      EXPECT_EQ(pe.hosts[h].as, se.hosts[h].as);
      EXPECT_EQ(pe.hosts[h].router, se.hosts[h].router);
      EXPECT_EQ(pe.hosts[h].port, se.hosts[h].port);
      EXPECT_EQ(pe.hosts[h].addr, se.hosts[h].addr);
    }

    ASSERT_EQ(pe.daemons.size(), se.daemons.size());
    for (std::size_t i = 0; i < se.daemons.size(); ++i) {
      const auto want = se.daemons[i]->prefixes();
      const auto got = pe.daemons[i]->prefixes();
      ASSERT_EQ(got.size(), want.size()) << "AS" << i;
      for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(got[k].prefix, want[k].prefix);
        EXPECT_EQ(got[k].default_neighbor, want[k].default_neighbor);
        EXPECT_EQ(got[k].alternatives, want[k].alternatives);
      }
    }
    expect_same_fibs(se, pe);

    se.enable_mifo(all_ases, dp::RouterConfig{}, kInterval);
    pe.enable_mifo(all_ases, dp::RouterConfig{}, kInterval);
    se.net->run_until(3 * kInterval);
    pe.net->run_until(3 * kInterval);
    std::size_t elected = 0;
    for (std::size_t i = 0; i < se.daemons.size(); ++i) {
      for (const core::PrefixRoutes& pr : se.daemons[i]->prefixes()) {
        const AsId want = se.daemons[i]->elected_alt(pr.prefix);
        EXPECT_EQ(pe.daemons[i]->elected_alt(pr.prefix), want)
            << "AS" << i << " prefix " << pr.prefix;
        elected += want.valid() ? 1 : 0;
      }
    }
    EXPECT_GT(elected, 0u);
    expect_same_fibs(se, pe);
  }
}

TEST(ShardedDifferential, ShardedRunsAreReproducible) {
  ScaledParams p = small_scaled_params();
  p.num_shards = 4;
  const ScaledResult a = run_scaled(p);
  const ScaledResult b = run_scaled(p);
  EXPECT_EQ(a.outcome_digest, b.outcome_digest);
  EXPECT_EQ(a.injected_pkts, b.injected_pkts);
  EXPECT_EQ(a.ring_overflow, b.ring_overflow);
}

TEST(ShardedDifferential, Fig11DeflectionMatchesSerialUnderMifo) {
  // The paper's Fig. 11 bottleneck (both pairs squeeze through AS3->AS4,
  // MIFO deflects via AS6): heavy congestion plus daemon-driven path
  // switches, compared engine vs engine.
  //
  // This scenario is deliberately tie-heavy: every link is the same rate,
  // both pairs send identical packets, so arrivals from different ingress
  // ports land on the bottleneck router at *identical* timestamps. Serial
  // orders such ties by global creation sequence; a shard orders them by
  // its local sequence — both valid serializations, but not the same one
  // (DESIGN.md §6 spells out the boundary). The differential here is
  // therefore outcome-level: completion, deflection activity, conservation
  // and near-identical delivery — while the tie-free scaled scenario above
  // stays bit-exact.
  const Fig11Ids ids;
  const topo::AsGraph g = fig11_graph();
  std::vector<bool> expand(g.num_ases(), false);
  expand[ids.as3.value()] = true;
  expand[ids.as4.value()] = true;
  expand[ids.as6.value()] = true;

  constexpr std::size_t kFlowsPerPair = 3;
  constexpr Bytes kFlowSize = 2 * kMegaByte;
  const auto schedule = [&](auto& net, const std::vector<HostAttachment>& h) {
    std::vector<FlowId> flow_ids;
    for (std::size_t i = 0; i < kFlowsPerPair; ++i) {
      for (std::size_t pair = 0; pair < 2; ++pair) {
        dp::FlowParams fp;
        fp.src = h[pair].host;      // s1, s2
        fp.dst = h[2 + pair].host;  // d1, d2
        fp.size = kFlowSize;
        fp.start = 1e-3 * static_cast<SimTime>(2 * i + pair);
        flow_ids.push_back(net.start_flow(fp));
      }
    }
    return flow_ids;
  };

  // Serial oracle.
  EmulationBuilder sb(g, expand);
  sb.attach_host(ids.as1);
  sb.attach_host(ids.as2);
  sb.attach_host(ids.as5);
  sb.attach_host(ids.as5);
  Emulation se = sb.finalize();
  se.enable_mifo({ids.as3}, dp::RouterConfig{}, 0.0050003);
  const auto serial_ids = schedule(*se.net, se.hosts);
  se.net->run_until(120.0);

  for (const std::size_t shards : {2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EmulationBuilder builder(g, expand);
    builder.attach_host(ids.as1);
    builder.attach_host(ids.as2);
    builder.attach_host(ids.as5);
    builder.attach_host(ids.as5);
    ShardedEmulation em = builder.finalize(shards);
    em.enable_mifo({ids.as3}, dp::RouterConfig{}, 0.0050003);
    const auto ids2 = schedule(*em.net, em.hosts);
    em.net->run_until(120.0);

    // Every flow finishes on both engines and every byte is accounted for.
    ASSERT_EQ(ids2.size(), serial_ids.size());
    for (std::size_t i = 0; i < ids2.size(); ++i) {
      EXPECT_TRUE(se.net->flow(serial_ids[i]).done);
      EXPECT_TRUE(em.net->sender_flow(ids2[i]).done);
      EXPECT_EQ(em.net->receiver_flow(ids2[i]).expected,
                se.net->flow(serial_ids[i]).expected);
    }
    std::uint64_t sharded_drops = 0;
    for (const auto& [reason, count] : em.net->drop_breakdown()) {
      sharded_drops += count;
    }
    EXPECT_EQ(em.net->injected_pkts(),
              em.net->delivered_pkts() + sharded_drops);

    // MIFO's machinery fires on both engines: packets deflect to the AS6
    // detour and get encapsulated, within a few percent of the oracle's
    // volume (tie order shifts which packets deflect, not whether).
    const dp::RouterCounters sc = se.net->total_counters();
    const dp::RouterCounters pc = em.net->total_counters();
    EXPECT_GT(sc.deflected, 0u);
    EXPECT_GT(pc.deflected, 0u);
    EXPECT_GT(pc.encapsulated, 0u);
    const auto near = [](std::uint64_t a, std::uint64_t b, double tol) {
      const double hi = static_cast<double>(std::max(a, b));
      const double lo = static_cast<double>(std::min(a, b));
      return hi - lo <= tol * hi;
    };
    EXPECT_TRUE(near(em.net->delivered_pkts(), se.net->delivered_pkts(), 0.02))
        << em.net->delivered_pkts() << " vs " << se.net->delivered_pkts();
    EXPECT_TRUE(near(pc.forwarded, sc.forwarded, 0.02))
        << pc.forwarded << " vs " << sc.forwarded;
    EXPECT_TRUE(near(pc.deflected, sc.deflected, 0.15))
        << pc.deflected << " vs " << sc.deflected;
  }
}

TEST(ShardedDifferential, ScaledTopologyReachesProductionRouterCount) {
  // The default scaled scenario is the ISSUE's "Fig. 12 at 1000+ routers":
  // verify the expansion rule actually yields that scale (cheap — no FIBs).
  const ScaledParams p;  // defaults
  topo::GeneratorParams gp;
  gp.num_ases = p.num_ases;
  gp.num_tier1 = p.num_tier1;
  gp.seed = p.seed;
  const topo::AsGraph g = topo::generate_topology(gp);
  const bgp::IbgpPlan plan(g, scaled_expand_mask(g, p.expand_degree_cap));
  EXPECT_GE(plan.num_routers(), 1000u);
}

}  // namespace
}  // namespace mifo::testbed
