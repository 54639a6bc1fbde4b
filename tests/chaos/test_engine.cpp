// Chaos-engine tests: scripted scenarios against a live MIFO emulation.
// Every event kind must apply, every quiescent snapshot must stay
// verifier-clean on a healthy deployment, recovery latencies must be
// accounted, a planted Eq. 3 violation must surface as a concrete
// counterexample, and the whole run must be bit-deterministic.

#include <gtest/gtest.h>

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

  void start_flow(Bytes size = 500 * 1000, SimTime at = 0.0) {
    dp::FlowParams fp;
    fp.src = em.hosts[0].host;
    fp.dst = em.hosts[1].host;
    fp.size = size;
    fp.start = at;
    em.net->start_flow(fp);
  }
};

Plan parse_or_die(const std::string& text) {
  std::string error;
  auto plan = parse_plan(text, error);
  EXPECT_TRUE(plan.has_value()) << error;
  return plan.value_or(Plan{});
}

TEST(ChaosEngine, LinkFlapStaysSafeAndFlowsComplete) {
  Fixture f = Fixture::make(5);
  f.start_flow(2 * kMegaByte);
  const AsId a = f.em.hosts[0].as;
  const AsId b = f.g.neighbors(a).front().as;
  const Plan plan = parse_or_die(
      "duration 0.6\n"
      "fail 0.1 mttr 0.15 link " +
      std::to_string(a.value()) + " " + std::to_string(b.value()) + "\n");

  Engine engine(f.em, f.g);
  const Report report = engine.run(plan);
  EXPECT_TRUE(report.safe);
  EXPECT_EQ(report.events_applied, 2u);
  EXPECT_EQ(report.violations.size(), 0u);
  EXPECT_GT(report.checks_run, 0u);
  EXPECT_EQ(report.checks_run, report.checks_clean);
  // The fail->recover pair resolved to a concrete recovery latency.
  ASSERT_EQ(report.log.size(), 2u);
  EXPECT_GE(report.log[0].recovery_latency(), 0.0);

  f.em.net->run_to_completion(60.0);
  for (const auto& fl : f.em.net->flows()) EXPECT_TRUE(fl.done);
}

// A recovery pairs with the failure on its own subject: a link named
// either way round, and never a concurrent fault on another link of the
// same AS.
TEST(ChaosEngine, RecoveryPairsWithTheFailureOnItsOwnLink) {
  const auto run = [](const std::string& text) {
    Fixture f = Fixture::make(5);  // tier-1 clique: AS 0 peers with 1 and 2
    Engine engine(f.em, f.g);
    return engine.run(parse_or_die(text));
  };
  const Report reversed = run(
      "duration 0.6\n"
      "at 0.1 link-down 0 1\n"
      "at 0.3 link-up 1 0\n");
  ASSERT_EQ(reversed.log.size(), 2u);
  ASSERT_TRUE(reversed.log[0].applied && reversed.log[1].applied);
  EXPECT_TRUE(reversed.safe);
  EXPECT_EQ(reversed.log[0].t_reconverged, 0.3);
  EXPECT_NEAR(reversed.log[0].recovery_latency(), 0.2, 1e-9);

  const Report interleaved = run(
      "duration 0.8\n"
      "at 0.1 link-down 0 1\n"
      "at 0.2 link-down 0 2\n"
      "at 0.3 link-up 0 1\n"
      "at 0.5 link-up 0 2\n");
  ASSERT_EQ(interleaved.log.size(), 4u);
  EXPECT_TRUE(interleaved.safe);
  EXPECT_EQ(interleaved.log[0].t_reconverged, 0.3);
  EXPECT_EQ(interleaved.log[1].t_reconverged, 0.5);
  EXPECT_NEAR(interleaved.log[0].recovery_latency(), 0.2, 1e-9);
  EXPECT_NEAR(interleaved.log[1].recovery_latency(), 0.3, 1e-9);
}

TEST(ChaosEngine, WithdrawReannounceRoundTripKeepsDelivery) {
  Fixture f = Fixture::make(6);
  const AsId owner = f.em.hosts[1].as;
  const Plan plan = parse_or_die(
      "duration 0.5\n"
      "fail 0.1 mttr 0.1 prefix " +
      std::to_string(owner.value()) + "\n");
  f.start_flow(kMegaByte);

  Engine engine(f.em, f.g);
  const Report report = engine.run(plan);
  EXPECT_TRUE(report.safe) << [&] {
    std::string all;
    for (const auto& v : report.violations) all += v.description + "\n";
    return all;
  }();
  EXPECT_EQ(report.events_applied, 2u);
  EXPECT_TRUE(report.log[0].applied);
  EXPECT_TRUE(report.log[1].applied);

  // Reachability is fully restored after the round trip.
  f.em.net->run_to_completion(60.0);
  EXPECT_TRUE(f.em.net->flows()[0].done);
  // Both events moved the routing plane, each recomputing the owner alone.
  EXPECT_EQ(report.route_events, 2u);
  for (const AppliedEvent& ae : report.log) {
    EXPECT_EQ(ae.route_recomputed, 1u) << ae.event.to_string();
  }
}

// Each event's route columns are the footprint of the routing event it
// applied to the delta table: a prefix event recomputes its origin alone,
// a refused prefix event and a link fault nested inside another on the
// same link apply none, and the table matches a from-scratch rebuild at
// every snapshot of a differential run.
TEST(ChaosEngine, DifferentialPlanRecordsEachRoutingEvent) {
  Fixture f = Fixture::make(17);
  const AsId owner = f.em.hosts[0].as;
  const std::string x = std::to_string(owner.value());
  const std::string y = std::to_string(f.em.hosts[1].as.value());
  const std::string link =
      x + " " + std::to_string(f.g.neighbors(owner).front().as.value());
  const Plan plan = parse_or_die(
      "duration 0.9\n"
      "at 0.1 withdraw " + x + "\n" +     // 0: recomputes x
      "at 0.15 withdraw " + x + "\n" +    // 1: already withdrawn
      "at 0.2 reannounce " + y + "\n" +   // 2: never withdrawn
      "at 0.25 reannounce " + x + "\n" +  // 3: recomputes x
      "at 0.3 link-down " + link + "\n" + // 4: session down
      "at 0.4 link-down " + link + "\n" + // 5: nested: ports only
      "at 0.5 link-up " + link + "\n" +   // 6: still held down
      "at 0.6 link-up " + link + "\n");   // 7: session up
  EngineConfig cfg;
  cfg.verify_mode = VerifyMode::Differential;
  Engine engine(f.em, f.g, cfg);
  const Report report = engine.run(plan);
  ASSERT_EQ(report.log.size(), 8u);

  constexpr std::size_t kOwners = 2;
  const auto footprint = [](const AppliedEvent& ae) {
    return ae.route_recomputed + ae.route_patched + ae.route_unchanged;
  };
  const bool applied[] = {true, false, false, true, true, true, true, true};
  const bool routed[] = {true, false, false, true, true, false, false, true};
  std::size_t recomputed = 0;
  for (std::size_t i = 0; i < report.log.size(); ++i) {
    const AppliedEvent& ae = report.log[i];
    EXPECT_EQ(ae.applied, applied[i]) << ae.event.to_string();
    EXPECT_EQ(footprint(ae), routed[i] ? kOwners : 0) << ae.event.to_string();
    recomputed += ae.route_recomputed;
  }
  EXPECT_EQ(report.log[0].route_recomputed, 1u);
  EXPECT_EQ(report.log[3].route_recomputed, 1u);
  EXPECT_EQ(report.route_events, 4u);
  EXPECT_EQ(report.total_route_recomputed, recomputed);
  EXPECT_EQ(report.route_differential_mismatches, 0u);
  EXPECT_EQ(report.differential_mismatches, 0u);
  EXPECT_TRUE(report.safe);
}

TEST(ChaosEngine, FreezeRestartAndIbgpStalenessApply) {
  Fixture f = Fixture::make(8);
  const AsId frozen = f.em.hosts[0].as;
  const AsId stale = f.em.hosts[1].as;
  const Plan plan = parse_or_die(
      "duration 0.6\n"
      "fail 0.1 mttr 0.1 ibgp " + std::to_string(stale.value()) +
      "\n"
      "fail 0.3 mttr 0.1 router " +
      std::to_string(frozen.value()) + "\n");

  Engine engine(f.em, f.g);
  const Report report = engine.run(plan);
  EXPECT_TRUE(report.safe);
  EXPECT_EQ(report.events_applied, 4u);
  for (const auto& ae : report.log) {
    EXPECT_TRUE(ae.applied) << ae.event.to_string();
    EXPECT_TRUE(ae.clean_immediate) << ae.event.to_string();
    EXPECT_TRUE(ae.clean_reconverged) << ae.event.to_string();
  }
  // Daemons are live again after the restart.
  EXPECT_FALSE(f.em.daemons[frozen.value()]->frozen());
  EXPECT_FALSE(f.em.daemons[stale.value()]->stale());
}

TEST(ChaosEngine, RestartedDaemonReprogramsItsAltPorts) {
  Fixture f = Fixture::make(8);
  // An AS that elects an alternative for some prefix.
  AsId frozen = AsId::invalid();
  for (const auto& d : f.em.daemons) {
    for (const core::PrefixRoutes& pr : d->prefixes()) {
      if (pr.default_neighbor.valid() && !pr.alternatives.empty()) {
        frozen = d->wiring().as;
      }
    }
    if (frozen.valid()) break;
  }
  ASSERT_TRUE(frozen.valid());
  const Plan plan = parse_or_die("duration 0.4\nfail 0.1 mttr 0.1 router " +
                                 std::to_string(frozen.value()) + "\n");
  Engine engine(f.em, f.g);
  EXPECT_TRUE(engine.run(plan).safe);

  // The restart wiped the AS's alt ports; the daemon's next tick must put
  // back every one its election implies, although the election itself did
  // not change. Every other daemon's FIBs follow its election too.
  std::size_t reprogrammed = 0;
  for (const auto& d : f.em.daemons) {
    const core::AsWiring& w = d->wiring();
    for (const core::PrefixRoutes& pr : d->prefixes()) {
      const AsId alt = d->elected_alt(pr.prefix);
      const auto* eg = alt.valid() ? w.egress_to(alt) : nullptr;
      for (const RouterId r : w.routers) {
        const auto fe = f.em.net->router(r).fib().lookup(pr.prefix);
        if (!fe) continue;
        EXPECT_EQ(fe->alt_port, eg != nullptr
                                    ? w.port_towards(r, eg->router, eg->port)
                                    : PortId::invalid())
            << "AS " << w.as.value() << " prefix " << pr.prefix;
        reprogrammed += w.as == frozen && fe->alt_port.valid() ? 1 : 0;
      }
    }
  }
  EXPECT_GT(reprogrammed, 0u);
}

TEST(ChaosEngine, PlanNamingAnAsOutsideTheTopologyIsRefused) {
  Fixture f = Fixture::make(8);
  const Plan plan = parse_or_die("duration 0.2\nat 0.1 ibgp-drop 99999\n");
  Engine engine(f.em, f.g);
  EXPECT_DEATH((void)engine.run(plan), "Precondition");
}

TEST(ChaosEngine, BurstInjectsFlows) {
  Fixture f = Fixture::make(9);
  const std::size_t before = f.em.net->flows().size();
  Plan plan;
  plan.duration = 0.4;
  Event ev;
  ev.t = 0.1;
  ev.kind = EventKind::Burst;
  ev.a = f.em.hosts[0].as;
  ev.b = f.em.hosts[1].as;
  ev.value = 0.5;  // MB per flow
  ev.count = 3;
  plan.events.push_back(ev);

  Engine engine(f.em, f.g);
  const Report report = engine.run(plan);
  EXPECT_TRUE(report.safe);
  EXPECT_EQ(report.events_applied, 1u);
  EXPECT_EQ(f.em.net->flows().size(), before + 3);
  f.em.net->run_to_completion(60.0);
  for (const auto& fl : f.em.net->flows()) EXPECT_TRUE(fl.done);
}

TEST(ChaosEngine, PlantedValleyYieldsConcreteCounterexample) {
  Fixture f = Fixture::make(12);
  Plan plan;
  plan.duration = 0.3;
  Event ev;
  ev.t = 0.1;
  ev.kind = EventKind::PlantValley;
  plan.events.push_back(ev);

  Engine engine(f.em, f.g);
  const Report report = engine.run(plan);
  ASSERT_EQ(report.log.size(), 1u);
  ASSERT_TRUE(report.log[0].applied) << report.log[0].detail;
  EXPECT_FALSE(report.safe);
  EXPECT_LT(report.checks_clean, report.checks_run);
  ASSERT_FALSE(report.violations.empty());
  bool has_cycle = false;
  for (const auto& v : report.violations) {
    has_cycle = has_cycle || v.description.find("cycle") != std::string::npos;
    EXPECT_EQ(v.event_index, 0u);  // attributed to the planting event
  }
  EXPECT_TRUE(has_cycle) << "expected a concrete counterexample cycle";
}

TEST(ChaosEngine, ReportJsonIsDeterministic) {
  const auto run_once = [] {
    Fixture f = Fixture::make(21);
    f.start_flow(kMegaByte);
    GenParams gp;
    gp.seed = 21;
    gp.duration = 0.8;
    gp.rate = 6.0;
    gp.prefix_owners = {f.em.hosts[0].as, f.em.hosts[1].as};
    const Plan plan = generate_plan(f.g, gp);
    Engine engine(f.em, f.g);
    return engine.run(plan).to_json().dump(2);
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace mifo::chaos
