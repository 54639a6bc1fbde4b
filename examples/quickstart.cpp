// Quickstart: generate a small Internet-like topology, inspect BGP routes
// and MIFO's alternative paths, then compare BGP vs MIFO end-to-end
// throughput on the same traffic.
//
//   ./examples/quickstart [num_ases] [num_flows]

#include <cstdio>
#include <cstdlib>

#include "bgp/route_store.hpp"
#include "sim/fluid_sim.hpp"
#include "sim/metrics.hpp"
#include "topo/analysis.hpp"
#include "topo/generator.hpp"
#include "traffic/traffic.hpp"

using namespace mifo;

int main(int argc, char** argv) {
  const std::size_t num_ases =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 600;
  const std::size_t num_flows =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 5000;

  // 1. Topology.
  topo::GeneratorParams gp;
  gp.num_ases = num_ases;
  gp.seed = 42;
  const topo::AsGraph g = topo::generate_topology(gp);
  std::printf("topology: %s\n",
              topo::attributes_report(topo::attributes(g)).c_str());

  // 2. BGP routes towards one destination, and the RIB alternatives MIFO
  //    taps into with zero control-plane overhead.
  const AsId dest(0);
  const bgp::RouteStore routes(g, dest);
  const AsId src(static_cast<std::uint32_t>(num_ases - 1));
  std::printf("default path AS%u -> AS%u:", src.value(), dest.value());
  for (const AsId as : routes.path(src)) std::printf(" %u", as.value());
  std::printf("\n");
  const auto rib = routes.rib(src);
  std::printf("RIB of AS%u towards AS%u: %zu routes (", src.value(),
              dest.value(), rib.size());
  for (const auto& r : rib) {
    std::printf(" via-AS%u/%s/len%u", r.next_hop.value(),
                bgp::to_string(r.cls), r.path_len);
  }
  std::printf(" )\n");

  // 3. Same traffic under BGP and under 50%-deployed MIFO.
  traffic::TrafficParams tp;
  tp.num_flows = num_flows;
  tp.dest_pool = 64;
  tp.seed = 7;
  const auto flows = traffic::uniform_traffic(g, tp);
  const auto deployed = traffic::random_deployment(g.num_ases(), 0.5, 99);

  for (const auto mode : {sim::RoutingMode::Bgp, sim::RoutingMode::Mifo}) {
    sim::SimConfig sc;
    sc.mode = mode;
    sim::FluidSim fs(g, sc);
    if (mode == sim::RoutingMode::Mifo) fs.set_deployment(deployed);
    const auto records = fs.run(flows);
    const auto s = sim::summarize(records);
    std::printf(
        "%-4s: completed=%zu mean=%.0f Mbps median=%.0f Mbps "
        ">=500Mbps: %.1f%%  offloaded: %.1f%%\n",
        sim::to_string(mode), s.completed, s.mean_throughput,
        s.median_throughput, 100.0 * s.frac_at_500mbps, 100.0 * s.offload);
  }
  return 0;
}
