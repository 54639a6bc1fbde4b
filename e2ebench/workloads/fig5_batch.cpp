// fig5_batch — Fig. 5(a) at 100% deployment: uniform traffic over a
// generated topology, three arms (BGP, MIRO@100, MIFO@100) one after another
// through the batch FluidSim::run with a one-thread route warm-up.
//
// The topology and the flow trace are the reference ones (seed 1); the
// variant permutes which (source, destination) pair arrives in which
// arrival slot, so the demand and the arrival process stay the same.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "obs/registry.hpp"
#include "sim/fluid_sim.hpp"
#include "sim/metrics.hpp"
#include "topo/generator.hpp"
#include "traffic/traffic.hpp"

namespace e2e {

namespace {

using namespace mifo;

struct State {
  topo::AsGraph g;
  std::vector<traffic::FlowSpec> specs;
};

std::unique_ptr<State> setup(const Options& o, Spans& spans) {
  auto st = std::make_unique<State>();
  topo::GeneratorParams gp;
  gp.num_ases = o.small ? 400 : 1000;
  gp.seed = 1;
  st->g = o.trace ? spans.leaf("topo.generate_s",
                               [&] { return topo::generate_topology(gp); })
                  : topo::generate_topology(gp);
  traffic::TrafficParams tp;
  tp.num_flows = o.small ? 2000 : 12000;
  tp.dest_pool = o.small ? 32 : 64;
  tp.arrival_rate = 800.0;
  tp.seed = 4;  // bench_fig5_throughput_deployment's trace at MIFO_SEED=1
  const auto make_specs = [&] {
    std::vector<traffic::FlowSpec> specs = traffic::uniform_traffic(st->g, tp);
    if (o.variant != 0) {
      std::vector<std::pair<AsId, AsId>> pairs;
      for (const traffic::FlowSpec& f : specs) pairs.emplace_back(f.src, f.dst);
      Rng(hash64(o.variant)).shuffle(pairs);
      for (std::size_t i = 0; i < specs.size(); ++i) {
        specs[i].src = pairs[i].first;
        specs[i].dst = pairs[i].second;
      }
    }
    return specs;
  };
  st->specs = o.trace ? spans.leaf("traffic.gen_s", make_specs) : make_specs();
  return st;
}

}  // namespace

void fig5_batch(const Options& o, Record& rec, Spans& spans) {
  const auto st = timed_setup(rec, o.trace ? 1 : kSetupRepeats,
                              [&] { return setup(o, spans); });
  const topo::AsGraph& g = st->g;

  std::vector<AsId> dests;
  for (const traffic::FlowSpec& s : st->specs) dests.push_back(s.dst);
  std::sort(dests.begin(), dests.end());
  dests.erase(std::unique(dests.begin(), dests.end()), dests.end());

  struct Arm {
    sim::RoutingMode mode;
    double ratio;
  };
  const Arm arms[] = {{sim::RoutingMode::Bgp, 0.0},
                      {sim::RoutingMode::Miro, 1.0},
                      {sim::RoutingMode::Mifo, 1.0}};
  obs::Registry reg;
  double wall = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Arm& arm : arms) {
    const std::string name = sim::to_string(arm.mode);
    sim::SimConfig cfg;
    cfg.mode = arm.mode;
    cfg.threads = 1;
    sim::FluidSim fs(g, cfg);
    if (o.trace) fs.attach_registry(reg, "arm=" + name);
    fs.set_deployment(traffic::random_deployment(g.num_ases(), arm.ratio, 12));

    const double t_arm = now_s();
    std::vector<sim::FlowRecord> records;
    if (o.trace) {
      // Route trees first, so sim.run_s.* is the event loop alone.
      spans.leaf("bgp.route_cache_s", [&] {
        for (const AsId d : dests) (void)fs.routes_for(d);
      });
      records = spans.leaf("sim.run_s." + name,
                           [&] { return fs.run(st->specs); });
    } else {
      records = fs.run(st->specs);
    }
    wall += now_s() - t_arm;

    const sim::RunSummary sum = sim::summarize(records);
    rec.output(name + ".completed", static_cast<std::uint64_t>(sum.completed));
    rec.output(name + ".unreachable",
               static_cast<std::uint64_t>(sum.unreachable));
    rec.output(name + ".frac_at_500mbps", sum.frac_at_500mbps);
    attempted += sum.total;
    failed += sum.total - sum.completed;
  }
  rec.metric("wall_s", wall);
  rec.count("attempted", attempted);
  rec.count("failed", failed);

  if (o.trace) {
    const obs::Snapshot snap = reg.snapshot();
    for (const char* m : {"sim.solver_runs", "sim.ticks", "sim.reroutes"}) {
      double total = 0.0;
      for (const obs::SnapshotEntry& e : snap.scalars) {
        if (e.name == m) total += e.value;
      }
      rec.layer_set(m, total);
    }
  }
}

}  // namespace e2e
