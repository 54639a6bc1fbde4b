// Integration tests of the chaos engine's incremental verification modes:
// Incremental snapshots must agree with Full ones on the same plan, and
// Differential mode — which runs both and cross-checks every snapshot —
// must report zero mismatches on healthy and on deliberately-broken runs
// alike (a planted violation must be caught by BOTH provers, not surface
// as a divergence).

#include <gtest/gtest.h>

#include <string>

#include "chaos/engine.hpp"
#include "chaos/plan.hpp"
#include "testbed/emulation.hpp"
#include "topo/generator.hpp"

namespace mifo::chaos {
namespace {

struct Fixture {
  topo::AsGraph g;
  testbed::Emulation em;

  static Fixture make(std::uint64_t seed) {
    topo::GeneratorParams gp;
    gp.num_ases = 30;
    gp.num_tier1 = 4;  // guarantees the peering triangle PlantValley needs
    gp.seed = seed;
    Fixture f{topo::generate_topology(gp), {}};
    testbed::EmulationBuilder builder(f.g,
                                      std::vector<bool>(f.g.num_ases(), false));
    builder.attach_host(AsId(10));
    builder.attach_host(
        AsId(static_cast<std::uint32_t>(f.g.num_ases() - 1)));
    f.em = builder.finalize();
    std::vector<AsId> all;
    for (std::uint32_t i = 0; i < f.g.num_ases(); ++i) {
      all.push_back(AsId(i));
    }
    f.em.enable_mifo(all, dp::RouterConfig{});
    return f;
  }
};

Plan parse_or_die(const std::string& text) {
  std::string error;
  auto plan = parse_plan(text, error);
  EXPECT_TRUE(plan.has_value()) << error;
  return plan.value_or(Plan{});
}

std::string churn_plan(const Fixture& f) {
  const AsId a = f.em.hosts[0].as;
  const AsId b = f.g.neighbors(a).front().as;
  const AsId owner = f.em.hosts[1].as;
  return "duration 0.8\n"
         "fail 0.1 mttr 0.15 link " +
         std::to_string(a.value()) + " " + std::to_string(b.value()) +
         "\n"
         "fail 0.2 mttr 0.2 prefix " +
         std::to_string(owner.value()) +
         "\n"
         "fail 0.45 mttr 0.1 router " +
         std::to_string(a.value()) + "\n";
}

TEST(ChaosDifferential, HealthyChurnHasZeroMismatches) {
  Fixture f = Fixture::make(9);
  const Plan plan = parse_or_die(churn_plan(f));

  EngineConfig ec;
  ec.verify_mode = VerifyMode::Differential;
  Engine engine(f.em, f.g, ec);
  const Report report = engine.run(plan);

  EXPECT_EQ(report.verify_mode, VerifyMode::Differential);
  EXPECT_TRUE(report.safe);
  EXPECT_EQ(report.differential_mismatches, 0u);
  EXPECT_EQ(report.events_applied, 6u);
  EXPECT_GT(report.checks_run, 0u);
  EXPECT_EQ(report.checks_run, report.checks_clean);
  // The proof cache earned its keep: most snapshots re-prove a strict
  // subset of destinations.
  EXPECT_GT(report.total_cache_hits, 0u);
  // The delta routing table mirrored the link and prefix churn (4 of the
  // 6 applied events have a routing-plane effect) and every snapshot's
  // from-scratch route rebuild agreed with the delta-maintained segments.
  EXPECT_EQ(report.route_events, 4u);
  EXPECT_EQ(report.route_differential_mismatches, 0u);
  EXPECT_GT(report.total_route_recomputed, 0u);
  std::size_t event_recomputed = 0;
  for (const auto& ae : report.log) event_recomputed += ae.route_recomputed;
  EXPECT_EQ(event_recomputed, report.total_route_recomputed);
}

TEST(ChaosDifferential, IncrementalModeAgreesWithFullOnTheSamePlan) {
  const std::string text = churn_plan(Fixture::make(11));

  auto run_mode = [&](VerifyMode mode) {
    Fixture f = Fixture::make(11);  // fresh deployment per mode
    EngineConfig ec;
    ec.verify_mode = mode;
    Engine engine(f.em, f.g, ec);
    return engine.run(parse_or_die(text));
  };

  const Report full = run_mode(VerifyMode::Full);
  const Report inc = run_mode(VerifyMode::Incremental);
  EXPECT_EQ(full.safe, inc.safe);
  EXPECT_EQ(full.checks_run, inc.checks_run);
  EXPECT_EQ(full.checks_clean, inc.checks_clean);
  EXPECT_EQ(full.violations.size(), inc.violations.size());
  // Full mode re-proves everything at every snapshot (its cumulative
  // incremental accounting stays zero); incremental must not — that is
  // the whole point of the dirty-set machinery. The per-event cost columns
  // are filled in both modes, so they give the fair comparison.
  EXPECT_EQ(full.total_cache_hits, 0u);
  EXPECT_EQ(full.total_dirty_destinations, 0u);
  EXPECT_GT(inc.total_cache_hits, 0u);
  std::size_t full_reproved = 0;
  std::size_t inc_reproved = 0;
  for (const auto& ae : full.log) full_reproved += ae.dirty_destinations;
  for (const auto& ae : inc.log) inc_reproved += ae.dirty_destinations;
  EXPECT_LT(inc_reproved, full_reproved);

  // Per-event cost accounting reached the report.
  bool any_cached = false;
  for (const auto& ae : inc.log) any_cached |= ae.cache_hits > 0;
  EXPECT_TRUE(any_cached);
}

// A session toggle moves the delta routing table, but nothing a prover
// reads: FIB defaults model the all-sessions-up state and the lints build
// routes from the base graph. So a link event whose only writes at
// injection are port flips re-proves nothing, and the full provers and the
// route oracle still agree at every snapshot.
TEST(ChaosDifferential, SessionTogglesDirtyNothingAtInjection) {
  Fixture f = Fixture::make(9);
  const auto link = [&](std::size_t host) {
    const AsId a = f.em.hosts[host].as;
    return std::to_string(a.value()) + " " +
           std::to_string(f.g.neighbors(a).front().as.value()) + "\n";
  };
  // The first snapshot is the verifier's cold pass, so an event with no
  // routing effect goes first; without traffic the daemons settle before
  // each reconvergence snapshot and write nothing between events.
  const Plan plan = parse_or_die("duration 1.0\n"
                                 "at 0.05 ibgp-drop 0\n"
                                 "at 0.1 link-down " + link(0) +
                                 "at 0.3 link-up " + link(0) +
                                 "at 0.5 link-down " + link(1) +
                                 "at 0.7 link-up " + link(1));

  EngineConfig ec;
  ec.verify_mode = VerifyMode::Differential;
  Engine engine(f.em, f.g, ec);
  const Report report = engine.run(plan);

  EXPECT_TRUE(report.safe);
  EXPECT_EQ(report.differential_mismatches, 0u);
  EXPECT_EQ(report.route_differential_mismatches, 0u);
  ASSERT_EQ(report.events_applied, 5u);
  std::size_t toggles = 0;
  for (std::size_t i = 0; i < report.log.size(); ++i) {
    const AppliedEvent& ae = report.log[i];
    if (ae.event.kind != EventKind::LinkDown &&
        ae.event.kind != EventKind::LinkUp) {
      continue;
    }
    ++toggles;
    ASSERT_GT(ae.route_recomputed + ae.route_patched, 0u)
        << "event " << i << " left the delta table unmoved";
    EXPECT_EQ(ae.dirty_destinations, 0u) << "event " << i;
    EXPECT_EQ(ae.states_explored, 0u) << "event " << i;
  }
  EXPECT_EQ(toggles, 4u);
}

TEST(ChaosDifferential, PlantedValleyIsCaughtWithoutDivergence) {
  Fixture f = Fixture::make(9);
  const Plan plan = parse_or_die(
      "duration 0.5\n"
      "at 0.1 plant-valley\n");

  EngineConfig ec;
  ec.verify_mode = VerifyMode::Differential;
  Engine engine(f.em, f.g, ec);
  const Report report = engine.run(plan);

  // Both provers must flag the planted ring — any disagreement would show
  // up as a differential mismatch on top of the violation.
  EXPECT_FALSE(report.safe);
  EXPECT_EQ(report.differential_mismatches, 0u);
  EXPECT_GT(report.violations.size(), 0u);
}

TEST(ChaosDifferential, PlantedStaleRouteIsCaughtByRouteOracle) {
  Fixture f = Fixture::make(9);
  const Plan plan = parse_or_die(
      "duration 0.5\n"
      "at 0.1 plant-stale-route\n");

  EngineConfig ec;
  ec.verify_mode = VerifyMode::Differential;
  Engine engine(f.em, f.g, ec);
  const Report report = engine.run(plan);

  // The data plane reconverged honestly (the withdraw really happened), so
  // the loop/valley/lint provers and the incremental-vs-full cross-check
  // stay clean: ONLY the route differential oracle can catch the stale
  // segment. Exactly that counter must fire.
  EXPECT_FALSE(report.safe);
  EXPECT_EQ(report.differential_mismatches, 0u);
  EXPECT_GT(report.route_differential_mismatches, 0u);
  bool route_violation = false;
  for (const auto& v : report.violations) {
    route_violation |= v.description.find("route-differential") == 0;
  }
  EXPECT_TRUE(route_violation);
}

TEST(ChaosDifferential, PlantStaleRouteRefusedOutsideDifferentialMode) {
  Fixture f = Fixture::make(9);
  const Plan plan = parse_or_die(
      "duration 0.4\n"
      "at 0.1 plant-stale-route\n");

  EngineConfig ec;
  ec.verify_mode = VerifyMode::Incremental;
  Engine engine(f.em, f.g, ec);
  const Report report = engine.run(plan);

  // No mode can catch the mutation without the route oracle, so the event
  // must refuse to apply rather than leave an undetectable stale segment.
  EXPECT_TRUE(report.safe);
  ASSERT_EQ(report.log.size(), 1u);
  EXPECT_FALSE(report.log[0].applied);
}

}  // namespace
}  // namespace mifo::chaos
