// stream_flash — the open-loop FluidSim::run_stream at bench_steady_state's
// calibrated operating point (gravity endpoints, rho = 0.85 on the busiest
// link, per-flow cap sized for a concurrency target), MIFO@100, with its
// flash-crowd arm: a 2x surge with a 30% hotspot over the middle fifth of
// the run while the three calibrated bottleneck links degrade and flap.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "chaos/fluid.hpp"
#include "chaos/plan.hpp"
#include "common.hpp"
#include "core/walk.hpp"
#include "sim/fluid_sim.hpp"
#include "topo/generator.hpp"
#include "traffic/workload.hpp"

namespace e2e {

namespace {

using namespace mifo;

struct Scale {
  std::size_t num_ases;
  std::size_t endpoints;
  std::size_t target;  ///< concurrent flows the calibration aims for
  double rho;
  std::uint64_t variant;
};

traffic::WorkloadParams base_params(const Scale& s) {
  traffic::WorkloadParams wp;
  wp.seed = 14;  // bench_steady_state's stream at MIFO_SEED=1
  wp.max_endpoints = s.endpoints;
  wp.pareto_alpha = 1.3;
  wp.size_min = 1 * kMegaByte;
  wp.size_max = 1000 * kMegaByte;
  return wp;
}

struct Calibration {
  double flow_cap = 0.0;  ///< Mbps
  double ramp = 0.0;      ///< seconds to reach the target
  std::vector<std::uint32_t> hot_links;
};

/// bench_steady_state's calibration: expected per-link load from the
/// gravity marginals over the endpoints' BGP default paths; the busiest
/// link pins the arrival rate at utilization rho.
Calibration calibrate(const topo::AsGraph& g, const Scale& s) {
  traffic::WorkloadParams wp = base_params(s);
  wp.arrival_rate = 1.0;
  wp.duration = 1.0;
  const traffic::WorkloadEngine probe(g, wp);
  const auto& eps = probe.endpoints();
  const auto w = probe.marginals();

  sim::SimConfig cfg;
  cfg.mode = sim::RoutingMode::Bgp;
  cfg.threads = 1;
  sim::FluidSim paths(g, cfg);
  std::vector<double> load(g.num_directed_links(), 0.0);
  for (std::size_t di = 0; di < eps.size(); ++di) {
    const bgp::RouteStore& store = paths.routes_for(eps[di]);
    for (std::size_t si = 0; si < eps.size(); ++si) {
      if (si == di) continue;
      const auto walk = core::bgp_walk(g, store, eps[si]);
      if (!walk.reachable) continue;
      for (const LinkId l : walk.links) load[l.value()] += w[si] * w[di];
    }
  }
  std::vector<std::uint32_t> order(load.size());
  for (std::uint32_t l = 0; l < load.size(); ++l) order[l] = l;
  std::sort(order.begin(), order.end(),
            [&load](std::uint32_t a, std::uint32_t b) {
              return load[a] != load[b] ? load[a] > load[b] : a < b;
            });

  Calibration c;
  const double offered = s.rho * kGigabit / load[order.front()];
  c.flow_cap = std::clamp(offered / static_cast<double>(s.target), 0.05,
                          kGigabit);
  c.ramp = static_cast<double>(s.target) * probe.mean_flow_megabits() /
           offered;  // target / arrival rate
  for (std::size_t i = 0; i < order.size() && c.hot_links.size() < 3; ++i) {
    const LinkId twin = g.twin(LinkId(order[i]));
    if (std::find(c.hot_links.begin(), c.hot_links.end(), twin.value()) ==
        c.hot_links.end()) {
      c.hot_links.push_back(order[i]);
    }
  }
  return c;
}

/// Mean at-cap flow duration inside a horizon T (heavy-tail correction):
/// integral_0^T P(size > cap*u) du for the bounded Pareto.
double effective_mean_duration(const traffic::WorkloadParams& wp, double cap,
                               double horizon) {
  const double lo = to_megabits(wp.size_min);
  const double hi = to_megabits(wp.size_max);
  const double a = wp.pareto_alpha;
  const double tail = std::pow(lo / hi, a);
  const auto survival = [&](double megabits) {
    if (megabits <= lo) return 1.0;
    if (megabits >= hi) return 0.0;
    return (std::pow(lo / megabits, a) - tail) / (1.0 - tail);
  };
  const int steps = 4096;
  const double dt = horizon / steps;
  double integral = 0.0;
  for (int i = 0; i < steps; ++i) {
    integral += survival(cap * (static_cast<double>(i) + 0.5) * dt) * dt;
  }
  return integral;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

struct State {
  topo::AsGraph g;
  traffic::WorkloadParams wp;
  std::unique_ptr<sim::FluidSim> fs;
  std::unique_ptr<traffic::WorkloadEngine> eng;
  sim::StreamConfig sc;
};

std::unique_ptr<State> setup(const Options& o, const Scale& s, Spans& spans) {
  auto st = std::make_unique<State>();
  topo::GeneratorParams gp;
  gp.num_ases = s.num_ases;
  gp.seed = 1;
  st->g = o.trace ? spans.leaf("topo.generate_s",
                               [&] { return topo::generate_topology(gp); })
                  : topo::generate_topology(gp);
  const topo::AsGraph& g = st->g;
  const Calibration c =
      o.trace ? spans.leaf("sim.calibrate_s", [&] { return calibrate(g, s); })
              : calibrate(g, s);
  const double duration = std::max(20.0, 3.0 * c.ramp);

  // The variant seeds the flow stream; the operating point is calibrated
  // on the reference stream's endpoints and sizes, which it does not move.
  traffic::WorkloadParams& wp = st->wp;
  wp = base_params(s);
  wp.seed = (1 + s.variant) * 11 + 3;
  wp.arrival_rate = static_cast<double>(s.target) /
                    effective_mean_duration(wp, c.flow_cap, duration);
  wp.duration = duration;
  traffic::FlashCrowd fc;
  fc.start = 0.4 * duration;
  fc.duration = 0.2 * duration;
  fc.rate_multiplier = 2.0;
  fc.hotspot_share = 0.3;
  wp.flash_crowds.push_back(fc);

  sim::SimConfig cfg;
  cfg.mode = sim::RoutingMode::Mifo;
  cfg.flow_rate_cap = c.flow_cap;
  cfg.threads = 1;
  cfg.reeval_interval = 1.0;
  st->fs = std::make_unique<sim::FluidSim>(g, cfg);
  st->fs->set_deployment(std::vector<bool>(g.num_ases(), true));

  chaos::Plan plan;
  plan.duration = 1.0;
  for (std::size_t i = 0; i < c.hot_links.size(); ++i) {
    chaos::Event down;
    down.t = 0.1 + 0.2 * static_cast<double>(i);
    down.kind = i == 0 ? chaos::EventKind::LinkDown : chaos::EventKind::Degrade;
    down.value = 0.25;
    down.a = g.link_from(LinkId(c.hot_links[i]));
    down.b = g.link_to(LinkId(c.hot_links[i]));
    plan.events.push_back(down);
    chaos::Event up = down;
    up.t = down.t + 0.3;
    up.kind = i == 0 ? chaos::EventKind::LinkUp : chaos::EventKind::Restore;
    plan.events.push_back(up);
  }
  plan.normalize();
  (void)chaos::apply_to_fluid_window(plan, g, *st->fs, fc.start, fc.duration);

  st->eng = std::make_unique<traffic::WorkloadEngine>(g, wp);
  st->sc.epoch = std::max(0.25, duration / 80.0);
  st->sc.max_time = duration;
  st->sc.measure_solve_latency = o.trace;
  return st;
}

}  // namespace

void stream_flash(const Options& o, Record& rec, Spans& spans) {
  const Scale s = o.small ? Scale{300, 64, 1500, 0.85, o.variant}
                          : Scale{1500, 512, 12000, 0.85, o.variant};
  const auto st = timed_setup(rec, o.trace ? 1 : kSetupRepeats,
                              [&] { return setup(o, s, spans); });
  const topo::AsGraph& g = st->g;
  sim::FluidSim& fs = *st->fs;
  traffic::WorkloadEngine& eng = *st->eng;
  const sim::StreamConfig& sc = st->sc;
  const traffic::WorkloadParams& wp = st->wp;

  // --- run: route trees for every endpoint (what run_stream's warm-up
  // does with more than one thread), then the stream ----------------------
  const double t_run = now_s();
  const auto route_cache = [&] {
    for (const AsId a : eng.endpoints()) (void)fs.routes_for(a);
  };
  const auto stream = [&] { return fs.run_stream(eng, sc); };
  sim::StreamResult res;
  if (o.trace) {
    spans.leaf("bgp.route_cache_s", route_cache);
    res = spans.leaf("sim.stream_s", stream);
  } else {
    route_cache();
    res = stream();
  }
  rec.metric("wall_s", now_s() - t_run);

  std::uint64_t completed = 0;
  std::uint64_t unreachable = 0;
  for (const sim::FlowRecord& r : res.records) {
    completed += r.completed ? 1 : 0;
    unreachable += r.unreachable ? 1 : 0;
  }
  const std::uint64_t flows = res.records.size();
  // Flows still in flight at the truncation horizon neither fail nor count.
  const std::uint64_t in_flight =
      res.truncated ? flows - completed - unreachable : 0;
  rec.count("attempted", flows - in_flight);
  rec.count("failed", flows - in_flight - completed);
  rec.output("flows", flows);
  rec.output("completed", completed);
  rec.output("unreachable", unreachable);
  rec.output("peak_active", res.peak_active);

  if (o.trace) {
    const auto& solver = res.solver;
    rec.layer_set("sim.stream_events", static_cast<double>(solver.events));
    rec.layer_set("sim.solver_incidences",
                  static_cast<double>(solver.incidences_resolved));
    rec.layer_set("sim.solver_full_incidences",
                  static_cast<double>(solver.full_incidences));
    rec.layer_set("sim.solve_work_reduction", solver.reduction());
    rec.layer_set("sim.peak_component",
                  static_cast<double>(solver.peak_component));
    rec.layer_set("sim.peak_active", static_cast<double>(res.peak_active));
    rec.layer_set("sim.solve_p50_us",
                  1e6 * percentile(res.solve_seconds, 0.5));
    rec.layer_set("sim.solve_p99_us",
                  1e6 * percentile(res.solve_seconds, 0.99));
    // How much of the stream is generation: drain a fresh engine with the
    // same parameters (a traced-only phase, outside wall_s).
    spans.leaf("traffic.stream_gen_s", [&] {
      traffic::WorkloadEngine fresh(g, wp);
      traffic::FlowSpec spec;
      while (fresh.next(spec)) {
      }
    });
  }
}

}  // namespace e2e
