// Internet-scale study: BGP vs MIRO vs MIFO on a generated AS topology with
// uniform traffic — a miniature of the paper's Fig. 5(b) (50% deployment).
// The three scheme arms are independent sims and run concurrently across
// MIFO_THREADS workers (0/unset = hardware_concurrency).
//
// Emits an `internet_scale.json` run artifact (schema mifo.run_artifact.v1)
// into MIFO_ARTIFACT_DIR (default "."; "-" disables).
//
//   ./examples/internet_scale [num_ases] [num_flows] [deploy_ratio]

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <vector>

#include "common/parallel_for.hpp"
#include "common/stats.hpp"
#include "obs/artifact.hpp"
#include "obs/registry.hpp"
#include "sim/fluid_sim.hpp"
#include "sim/metrics.hpp"
#include "topo/analysis.hpp"
#include "topo/generator.hpp"
#include "traffic/traffic.hpp"

using namespace mifo;

int main(int argc, char** argv) {
  const std::size_t num_ases =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1500;
  const std::size_t num_flows =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 20000;
  const double ratio = argc > 3 ? std::strtod(argv[3], nullptr) : 0.5;

  topo::GeneratorParams gp;
  gp.num_ases = num_ases;
  gp.seed = 3;
  const topo::AsGraph g = topo::generate_topology(gp);
  std::printf("topology: %s\n",
              topo::attributes_report(topo::attributes(g)).c_str());

  traffic::TrafficParams tp;
  tp.num_flows = num_flows;
  tp.dest_pool = 128;
  const auto flows = traffic::uniform_traffic(g, tp);
  const auto deployed = traffic::random_deployment(g.num_ases(), ratio, 17);

  const std::vector<sim::RoutingMode> modes{
      sim::RoutingMode::Bgp, sim::RoutingMode::Miro, sim::RoutingMode::Mifo};
  obs::Registry reg;
  std::vector<std::vector<std::string>> rows(modes.size());
  std::vector<sim::RunSummary> sums(modes.size());
  std::vector<obs::UtilSeries> samples(modes.size());
  auto run_mode = [&](std::size_t i) {
    sim::SimConfig sc;
    sc.mode = modes[i];
    sim::FluidSim fs(g, sc);
    fs.attach_registry(reg, std::string("mode=") + sim::to_string(modes[i]));
    fs.enable_sampling(0.05);
    fs.set_deployment(deployed);
    const auto records = fs.run(flows);
    sums[i] = sim::summarize(records);
    samples[i] = fs.samples();
    const auto& s = sums[i];
    char buf[64];
    std::vector<std::string> row;
    row.emplace_back(sim::to_string(modes[i]));
    std::snprintf(buf, sizeof(buf), "%.0f", s.mean_throughput);
    row.emplace_back(buf);
    std::snprintf(buf, sizeof(buf), "%.0f", s.median_throughput);
    row.emplace_back(buf);
    std::snprintf(buf, sizeof(buf), "%.1f%%", 100.0 * s.frac_at_500mbps);
    row.emplace_back(buf);
    std::snprintf(buf, sizeof(buf), "%.1f%%", 100.0 * s.offload);
    row.emplace_back(buf);
    rows[i] = std::move(row);
  };
  parallel_for(default_thread_count(), modes.size(), run_mode);
  std::printf("\n%zu flows, %.0f%% deployment:\n%s", num_flows, 100.0 * ratio,
              format_table({"mode", "mean Mbps", "median Mbps", ">=500Mbps",
                            "offloaded"},
                           rows)
                  .c_str());

  obs::Json root = obs::Json::object();
  root.set("schema", obs::Json::str("mifo.run_artifact.v1"));
  root.set("bench", obs::Json::str("internet_scale"));
  obs::Json scale = obs::Json::object();
  scale.set("topo_n", obs::Json::num(static_cast<std::uint64_t>(num_ases)));
  scale.set("flows", obs::Json::num(static_cast<std::uint64_t>(num_flows)));
  scale.set("deploy_ratio", obs::Json::num(ratio));
  root.set("scale", std::move(scale));
  obs::Json arms = obs::Json::array();
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const auto& s = sums[i];
    obs::Json a = obs::Json::object();
    a.set("name", obs::Json::str(sim::to_string(modes[i])));
    a.set("mode", obs::Json::str(sim::to_string(modes[i])));
    a.set("deploy_ratio", obs::Json::num(
                              modes[i] == sim::RoutingMode::Bgp ? 0.0 : ratio));
    obs::Json sum = obs::Json::object();
    sum.set("total", obs::Json::num(static_cast<std::uint64_t>(s.total)));
    sum.set("completed",
            obs::Json::num(static_cast<std::uint64_t>(s.completed)));
    sum.set("unreachable",
            obs::Json::num(static_cast<std::uint64_t>(s.unreachable)));
    sum.set("mean_throughput_mbps", obs::Json::num(s.mean_throughput));
    sum.set("median_throughput_mbps", obs::Json::num(s.median_throughput));
    sum.set("frac_at_500mbps", obs::Json::num(s.frac_at_500mbps));
    sum.set("offload", obs::Json::num(s.offload));
    a.set("summary", std::move(sum));
    a.set("drops",
          obs::drops_json(
              {{"unreachable", s.unreachable},
               {"incomplete", s.total - s.completed - s.unreachable}}));
    a.set("utilization", obs::to_json(samples[i]));
    arms.push(std::move(a));
  }
  root.set("arms", std::move(arms));
  root.set("metrics", obs::to_json(reg.snapshot()));
  const std::string path = obs::write_artifact("internet_scale", root);
  if (!path.empty()) std::printf("\nartifact: %s\n", path.c_str());
  return 0;
}
