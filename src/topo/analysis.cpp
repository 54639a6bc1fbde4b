#include "topo/analysis.hpp"

#include <deque>
#include <sstream>

#include "common/contracts.hpp"

namespace mifo::topo {

TopologyAttributes attributes(const AsGraph& g) {
  TopologyAttributes a;
  a.nodes = g.num_ases();
  a.links = g.num_adjacencies();
  a.pc_links = g.num_pc_adjacencies();
  a.peering_links = g.num_peer_adjacencies();
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    const AsId as(static_cast<std::uint32_t>(i));
    a.max_degree = std::max(a.max_degree, g.degree(as));
    switch (g.info(as).tier) {
      case 1:
        ++a.tier1;
        break;
      case 2:
        ++a.transit;
        break;
      default:
        ++a.stubs;
        break;
    }
  }
  a.avg_degree = a.nodes == 0
                     ? 0.0
                     : 2.0 * static_cast<double>(a.links) /
                           static_cast<double>(a.nodes);
  return a;
}

std::string attributes_report(const TopologyAttributes& a) {
  std::ostringstream os;
  os << "nodes=" << a.nodes << " links=" << a.links
     << " p/c=" << a.pc_links << " peering=" << a.peering_links
     << " avg_degree=" << a.avg_degree << " max_degree=" << a.max_degree
     << " tier1=" << a.tier1 << " transit=" << a.transit
     << " stubs=" << a.stubs;
  return os.str();
}

bool is_pc_acyclic(const AsGraph& g) {
  // Kahn's algorithm over provider -> customer edges.
  const std::size_t n = g.num_ases();
  std::vector<std::size_t> indeg(n, 0);  // # providers of each AS
  for (std::size_t i = 0; i < n; ++i) {
    indeg[i] = g.provider_count(AsId(static_cast<std::uint32_t>(i)));
  }
  std::deque<std::uint32_t> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) ready.push_back(static_cast<std::uint32_t>(i));
  }
  std::size_t visited = 0;
  while (!ready.empty()) {
    const AsId as(ready.front());
    ready.pop_front();
    ++visited;
    for (const auto& nb : g.neighbors(as)) {
      if (nb.rel != Rel::Customer) continue;
      if (--indeg[nb.as.value()] == 0) ready.push_back(nb.as.value());
    }
  }
  return visited == n;
}

std::vector<AsId> pc_topological_order(const AsGraph& g) {
  const std::size_t n = g.num_ases();
  std::vector<std::size_t> indeg(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    indeg[i] = g.provider_count(AsId(static_cast<std::uint32_t>(i)));
  }
  std::deque<std::uint32_t> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) ready.push_back(static_cast<std::uint32_t>(i));
  }
  std::vector<AsId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const AsId as(ready.front());
    ready.pop_front();
    order.push_back(as);
    for (const auto& nb : g.neighbors(as)) {
      if (nb.rel != Rel::Customer) continue;
      if (--indeg[nb.as.value()] == 0) ready.push_back(nb.as.value());
    }
  }
  MIFO_ENSURES(order.size() == n);  // cyclic P/C digraph is a build error
  return order;
}

bool is_connected(const AsGraph& g) {
  const std::size_t n = g.num_ases();
  if (n == 0) return true;
  std::vector<bool> seen(n, false);
  std::deque<std::uint32_t> queue{0};
  seen[0] = true;
  std::size_t visited = 0;
  while (!queue.empty()) {
    const AsId as(queue.front());
    queue.pop_front();
    ++visited;
    for (const auto& nb : g.neighbors(as)) {
      if (!seen[nb.as.value()]) {
        seen[nb.as.value()] = true;
        queue.push_back(nb.as.value());
      }
    }
  }
  return visited == n;
}

std::vector<std::size_t> degrees(const AsGraph& g) {
  std::vector<std::size_t> d(g.num_ases());
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    d[i] = g.degree(AsId(static_cast<std::uint32_t>(i)));
  }
  return d;
}

}  // namespace mifo::topo
