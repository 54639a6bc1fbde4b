// Seeded chaos property tests (docs/CHAOS.md): for randomized churn plans
// over random topologies, a healthy MIFO deployment must preserve
//   1. safety   — every quiescent snapshot verifier-clean,
//   2. liveness — no stuck flows once faults are repaired,
//   3. conservation — every injected packet delivered or in a drop bucket,
// and the whole (topology, plan, traffic) triple must be deterministic, so
// the seed sweep can fan out across threads and still match a serial run
// bit for bit — the chaos arms of bench_chaos_recovery rely on
// exactly this.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/engine.hpp"
#include "chaos/plan.hpp"
#include "common/parallel_for.hpp"
#include "testbed/emulation.hpp"
#include "topo/generator.hpp"

namespace mifo::chaos {
namespace {

struct RunOutcome {
  bool safe = false;
  std::size_t events_applied = 0;
  std::size_t flows_done = 0;
  std::size_t flows_total = 0;
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t drop_sum = 0;
  std::uint64_t queued = 0;
  std::uint64_t ttl_drops = 0;
  std::string report_json;
};

RunOutcome run_chaos(std::uint64_t seed) {
  topo::GeneratorParams gp;
  gp.num_ases = 26;
  gp.num_tier1 = 3;
  gp.seed = seed;
  const auto g = topo::generate_topology(gp);

  testbed::EmulationBuilder builder(g, std::vector<bool>(g.num_ases(), false));
  std::vector<AsId> owners;
  for (std::size_t i = 0; i < 3; ++i) {
    owners.push_back(AsId(
        static_cast<std::uint32_t>(i * (g.num_ases() - 1) / 2)));
    builder.attach_host(owners.back());
  }
  testbed::Emulation em = builder.finalize();
  std::vector<AsId> all;
  for (std::uint32_t i = 0; i < g.num_ases(); ++i) all.push_back(AsId(i));
  em.enable_mifo(all, dp::RouterConfig{});

  Rng traffic(hash_combine(seed, 0x9e77));
  for (int i = 0; i < 6; ++i) {
    dp::FlowParams fp;
    const std::size_t a = traffic.bounded(em.hosts.size());
    std::size_t b = traffic.bounded(em.hosts.size());
    if (b == a) b = (b + 1) % em.hosts.size();
    fp.src = em.hosts[a].host;
    fp.dst = em.hosts[b].host;
    fp.size = 500 * 1000;
    fp.start = traffic.uniform(0.0, 0.3);
    em.net->start_flow(fp);
  }

  GenParams pp;
  pp.seed = seed;
  pp.duration = 0.8;
  pp.rate = 8.0;
  pp.mttr = 0.1;
  pp.prefix_owners = owners;
  const Plan plan = generate_plan(g, pp);

  EngineConfig ec;
  ec.seed = seed;
  Engine engine(em, g, ec);
  const Report report = engine.run(plan);

  // Faults are all repaired inside the plan; whatever the churn did to the
  // transports, every flow must eventually finish.
  em.net->run_to_completion(120.0);

  RunOutcome out;
  out.safe = report.safe;
  out.events_applied = report.events_applied;
  out.flows_total = em.net->flows().size();
  for (const auto& f : em.net->flows()) out.flows_done += f.done ? 1 : 0;
  out.injected = em.net->injected_pkts();
  out.delivered = em.net->delivered_pkts();
  for (const auto& [reason, count] : em.net->drop_breakdown()) {
    (void)reason;
    out.drop_sum += count;
  }
  out.queued = em.net->queued_pkts();
  out.ttl_drops = em.net->total_counters().ttl_drops;
  out.report_json = report.to_json().dump(0);
  return out;
}

class ChaosProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosProperty, ChurnPreservesSafetyLivenessConservation) {
  const RunOutcome out = run_chaos(GetParam());

  // Safety: every quiescent snapshot loop-free and lint-clean, and no
  // packet ever walked a loop long enough to burn its TTL.
  EXPECT_TRUE(out.safe);
  EXPECT_EQ(out.ttl_drops, 0u);

  // Liveness: no stuck flows after repair — and the run really drained.
  EXPECT_EQ(out.flows_done, out.flows_total);
  EXPECT_GT(out.flows_total, 0u);
  EXPECT_EQ(out.queued, 0u);

  // Conservation: injected = delivered + every drop bucket.
  EXPECT_GT(out.injected, 0u);
  EXPECT_EQ(out.injected, out.delivered + out.drop_sum);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ChaosParallel, ThreadPoolSweepMatchesSerial) {
  const std::vector<std::uint64_t> seeds{3, 4, 5, 6};
  std::vector<RunOutcome> serial(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    serial[i] = run_chaos(seeds[i]);
  }

  // Same sweep, fanned out: emulations are independent dp::Networks, so
  // the arms may run concurrently and must reproduce the serial results
  // exactly (this is the execution model of bench_chaos_recovery).
  std::vector<RunOutcome> parallel(seeds.size());
  parallel_for(seeds.size(), seeds.size(),
               [&](std::size_t i) { parallel[i] = run_chaos(seeds[i]); });

  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(parallel[i].report_json, serial[i].report_json) << seeds[i];
    EXPECT_EQ(parallel[i].injected, serial[i].injected) << seeds[i];
    EXPECT_EQ(parallel[i].delivered, serial[i].delivered) << seeds[i];
    EXPECT_EQ(parallel[i].drop_sum, serial[i].drop_sum) << seeds[i];
    EXPECT_TRUE(parallel[i].safe) << seeds[i];
  }
}

}  // namespace
}  // namespace mifo::chaos
