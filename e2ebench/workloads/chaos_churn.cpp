// chaos_churn — chaos::Engine::run set up the way mifo-chaos sets it up: a
// generated topology with one router per AS, prefix owners spread over the
// id space, MIFO daemons on every AS at a 10 ms tick, seeded background
// flows, a seeded Poisson fault plan, incremental verification at every
// snapshot. The topology and fault plan are the reference ones (seed 3);
// the variant seeds the background flows.
//
// The traced pass runs the same plan three ways through EngineConfig —
// incremental (timed layer by layer), full provers, and verify = false —
// so the verifier's cost in each mode is the difference to the unverified
// run.

#include <memory>
#include <string>
#include <vector>

#include "chaos/engine.hpp"
#include "chaos/plan.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "daemon_clock.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "topo/generator.hpp"

namespace e2e {

namespace {

using namespace mifo;

struct Scale {
  std::size_t num_ases;
  std::size_t dests;
  std::size_t flows;
  double rate;  ///< fault arrivals per second
  SimTime duration;
  SimTime mttr;
  std::uint64_t flow_seed;  ///< background flows; all else uses seed 3
};

/// One ready-to-run chaos scenario (mifo-chaos's set-up, minus artifacts).
struct Scenario {
  testbed::Emulation em;
  std::unique_ptr<obs::Tracer> tracer;
  chaos::Plan plan;
};

/// `clock` non-null: register the daemon ticks through the timed wrapper.
std::unique_ptr<Scenario> make_scenario(const topo::AsGraph& g,
                                        const Scale& s, DaemonClock* clock) {
  const std::size_t n = g.num_ases();
  testbed::EmulationBuilder builder(g, std::vector<bool>(n, false));
  std::vector<AsId> owners;
  for (std::size_t i = 0; i < s.dests; ++i) {
    const std::size_t as = i * (n - 1) / (s.dests - 1);
    owners.push_back(AsId(static_cast<std::uint32_t>(as)));
    builder.attach_host(owners.back());
  }
  auto sc =
      std::make_unique<Scenario>(Scenario{builder.finalize(), nullptr, {}});
  testbed::Emulation& em = sc->em;
  if (clock != nullptr) {
    enable_mifo_timed(em, dp::RouterConfig{}, 0.01, *clock);
  } else {
    std::vector<AsId> all;
    for (std::size_t i = 0; i < n; ++i) {
      all.push_back(AsId(static_cast<std::uint32_t>(i)));
    }
    em.enable_mifo(all, dp::RouterConfig{}, 0.01);
  }
  sc->tracer = std::make_unique<obs::Tracer>(8192);
  sc->tracer->set_keep_spare_adverts(false);
  em.net->set_tracer(sc->tracer.get());

  Rng rng(hash_combine(s.flow_seed, 0x7aff1c));
  for (std::size_t i = 0; i < s.flows; ++i) {
    dp::FlowParams fp;
    const std::size_t a = rng.bounded(em.hosts.size());
    std::size_t b = rng.bounded(em.hosts.size());
    if (b == a) b = (b + 1) % em.hosts.size();
    fp.src = em.hosts[a].host;
    fp.dst = em.hosts[b].host;
    fp.size = static_cast<Bytes>(1 + rng.bounded(4)) * kMegaByte;
    fp.start = rng.uniform(0.0, 0.6 * s.duration);
    em.net->start_flow(fp);
  }

  chaos::GenParams gp;
  gp.seed = 3;
  gp.duration = s.duration;
  gp.rate = s.rate;
  gp.mttr = s.mttr;
  gp.prefix_owners = owners;
  sc->plan = chaos::generate_plan(g, gp);
  return sc;
}

chaos::EngineConfig engine_config(chaos::VerifyMode mode, bool verify) {
  chaos::EngineConfig ec;
  ec.seed = 3;
  ec.verify_mode = mode;
  ec.verify = verify;
  return ec;
}

double counter(const obs::Registry& reg, const std::string& name) {
  return reg.snapshot().value_or(name, 0.0);
}

/// One of the traced pass's comparison arms: the same plan on a fresh
/// scenario, full provers (`verify`) or no verification at all.
struct ComparisonArm {
  double wall = 0.0;  ///< Engine::run
  double states_explored = 0.0;
  bool agrees = false;  ///< same events applied (and, verified: same
                        ///< snapshots, SAFE) as the incremental run
};

ComparisonArm comparison_arm(const topo::AsGraph& g, const Scale& s,
                             bool verify, const std::string& layer,
                             const chaos::Report& incremental, Spans& spans) {
  auto sc = spans.leaf("testbed.build_s",
                       [&] { return make_scenario(g, s, nullptr); });
  obs::Registry reg;
  sc->em.net->publish_metrics(reg, "phase=start");
  chaos::Engine engine(sc->em, g,
                       engine_config(chaos::VerifyMode::Full, verify));
  engine.attach_registry(reg, "");
  ComparisonArm arm;
  const double t0 = now_s();
  const chaos::Report report =
      spans.leaf(layer, [&] { return engine.run(sc->plan); });
  arm.wall = now_s() - t0;
  arm.states_explored = counter(reg, "verify.states_explored");
  arm.agrees = report.events_applied == incremental.events_applied &&
               (!verify || (report.safe &&
                            report.checks_run == incremental.checks_run));
  return arm;
}

struct State {
  topo::AsGraph g;
  std::unique_ptr<Scenario> sc;
  obs::Registry reg;
  std::unique_ptr<chaos::Engine> engine;
};

std::unique_ptr<State> setup(const Options& o, const Scale& s, Spans& spans,
                             DaemonClock& clock) {
  auto st = std::make_unique<State>();
  topo::GeneratorParams gp;
  gp.num_ases = s.num_ases;
  gp.seed = 3;
  st->g = o.trace ? spans.leaf("topo.generate_s",
                               [&] { return topo::generate_topology(gp); })
                  : topo::generate_topology(gp);
  st->sc = o.trace ? spans.leaf("testbed.build_s",
                                [&] {
                                  return make_scenario(st->g, s, &clock);
                                })
                   : make_scenario(st->g, s, nullptr);
  st->sc->em.net->publish_metrics(st->reg, "phase=start");
  st->engine = std::make_unique<chaos::Engine>(
      st->sc->em, st->g, engine_config(chaos::VerifyMode::Incremental, true));
  st->engine->attach_registry(st->reg, "");
  return st;
}

}  // namespace

void chaos_churn(const Options& o, Record& rec, Spans& spans) {
  const Scale s = o.small ? Scale{60, 8, 20, 10.0, 0.8, 0.15, 3 + o.variant}
                          : Scale{400, 64, 100, 40.0, 2.0, 0.15, 3 + o.variant};
  DaemonClock clock;
  const auto st = timed_setup(rec, o.trace ? 1 : kSetupRepeats,
                              [&] { return setup(o, s, spans, clock); });
  const topo::AsGraph& g = st->g;
  Scenario* sc = st->sc.get();
  dp::Network& net = *sc->em.net;
  chaos::Engine& engine = *st->engine;
  const obs::Registry& reg = st->reg;

  // --- run: the plan, its snapshots and the engine's final drain ---------
  const double t_run = now_s();
  const chaos::Report report =
      o.trace ? spans.leaf("chaos.run_s", [&] { return engine.run(sc->plan); })
              : engine.run(sc->plan);
  rec.metric("wall_s", now_s() - t_run);

  std::uint64_t done = 0;
  for (const dp::FlowState& f : net.flows()) done += f.done ? 1 : 0;
  rec.count("attempted", report.checks_run);
  rec.count("failed", report.checks_run - report.checks_clean);
  rec.output("safe", report.safe);
  rec.output("events_applied",
             static_cast<std::uint64_t>(report.events_applied));
  rec.output("snapshots", static_cast<std::uint64_t>(report.checks_run));
  rec.output("route_events", static_cast<std::uint64_t>(report.route_events));
  rec.output("flows_done", done);
  rec.output("delivered", net.delivered_pkts());

  if (!o.trace) return;
  const double run_s = rec.layer("chaos.run_s");
  rec.layer_set("core.daemon_tick_s", clock.seconds);
  rec.layer_set("core.daemon_ticks", static_cast<double>(clock.ticks));
  rec.layer_set("core.daemon_tick_share", clock.seconds / run_s);
  rec.layer_set("dp.pkts_injected", static_cast<double>(net.injected_pkts()));
  rec.layer_set("dp.pkts_delivered",
                static_cast<double>(net.delivered_pkts()));
  rec.layer_set("chaos.events_applied",
                static_cast<double>(report.events_applied));
  rec.layer_set("bgp.route_events", static_cast<double>(report.route_events));
  rec.layer_set("bgp.recomputed",
                static_cast<double>(report.total_route_recomputed));
  rec.layer_set("bgp.patched", static_cast<double>(report.total_route_patched));
  rec.layer_set("verify.snapshots", static_cast<double>(report.checks_run));
  for (const char* m : {"verify.dirty_destinations", "verify.cache_hits",
                        "verify.states_explored"}) {
    rec.layer_set(m, counter(reg, m));
  }

  // The same plan with the full provers, and with verification off.
  const ComparisonArm full = comparison_arm(
      g, s, true, "chaos.full_verify_run_s", report, spans);
  const ComparisonArm off =
      comparison_arm(g, s, false, "chaos.noverify_s", report, spans);
  rec.layer_set("verify.full_states_explored", full.states_explored);
  rec.layer_set("verify.cost_s", run_s - off.wall);
  rec.layer_set("verify.full_cost_s", full.wall - off.wall);
  rec.output("arms_agree", full.agrees && off.agrees);
}

}  // namespace e2e
