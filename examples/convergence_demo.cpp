// BGP protocol-engine demo: run real UPDATE/WITHDRAW message passing over a
// generated topology to convergence, compare with the analytic fixpoint,
// then withdraw a popular prefix and watch the network drain it.
//
//   ./examples/convergence_demo [num_ases]

#include <cstdio>
#include <cstdlib>

#include "bgp/route_store.hpp"
#include "bgpd/session_network.hpp"
#include "topo/analysis.hpp"
#include "topo/generator.hpp"

using namespace mifo;

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 300;
  topo::GeneratorParams gp;
  gp.num_ases = n;
  gp.seed = 11;
  const auto g = topo::generate_topology(gp);
  std::printf("topology: %s\n",
              topo::attributes_report(topo::attributes(g)).c_str());

  bgpd::SessionNetwork net(g);
  net.originate_all();
  const std::size_t msgs = net.run_to_convergence();
  std::printf("converged after %zu UPDATE messages (%.1f per prefix)\n",
              msgs, static_cast<double>(msgs) / static_cast<double>(n));

  // Cross-check a few prefixes against the analytic three-phase fixpoint.
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  for (std::uint32_t d = 0; d < g.num_ases(); d += 37) {
    const bgp::RouteStore analytic(g, AsId(d));
    for (std::uint32_t s = 0; s < g.num_ases(); ++s) {
      if (s == d) continue;
      ++checked;
      const auto a = analytic.best(AsId(s));
      const auto b = net.speaker(AsId(s)).best(AsId(d));
      if (a.valid() != b.valid() ||
          (a.valid() && (a.cls != b.cls || a.path_len != b.path_len ||
                         a.next_hop != b.next_hop))) {
        ++mismatches;
      }
    }
  }
  std::printf("protocol vs analytic fixpoint: %zu routes checked, "
              "%zu mismatches\n", checked, mismatches);

  // Dynamic event: withdraw the best-connected AS's prefix.
  const auto ranked_degree = topo::degrees(g);
  AsId victim(0);
  for (std::uint32_t i = 1; i < g.num_ases(); ++i) {
    if (ranked_degree[i] > ranked_degree[victim.value()]) victim = AsId(i);
  }
  net.withdraw(victim);
  const std::size_t wd_msgs = net.run_to_convergence();
  std::size_t holders = 0;
  for (std::uint32_t s = 0; s < g.num_ases(); ++s) {
    if (s != victim.value() && net.speaker(AsId(s)).best(victim).valid()) {
      ++holders;
    }
  }
  std::printf("withdrew AS%u (degree %zu): %zu messages, %zu stale routes "
              "remain (must be 0)\n",
              victim.value(), ranked_degree[victim.value()], wd_msgs,
              holders);
  return holders == 0 ? 0 : 1;
}
