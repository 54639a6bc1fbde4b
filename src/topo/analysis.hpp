// Structural analyses over AsGraph: Table-I style attribute reports and the
// graph-theoretic invariants the route computation relies on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topo/as_graph.hpp"

namespace mifo::topo {

/// The attributes the paper reports in Table I for its measured data set.
struct TopologyAttributes {
  std::size_t nodes = 0;
  std::size_t links = 0;          ///< undirected adjacencies
  std::size_t pc_links = 0;       ///< provider/customer
  std::size_t peering_links = 0;  ///< mutual peering
  double avg_degree = 0.0;
  std::size_t max_degree = 0;
  std::size_t tier1 = 0;
  std::size_t transit = 0;
  std::size_t stubs = 0;
};

[[nodiscard]] TopologyAttributes attributes(const AsGraph& g);

/// Human-readable Table-I style report.
[[nodiscard]] std::string attributes_report(const TopologyAttributes& a);

/// True iff the provider->customer digraph has no cycle. Route computation
/// and the path-counting DP require this.
[[nodiscard]] bool is_pc_acyclic(const AsGraph& g);

/// Topological order of the P/C digraph with every provider before all of
/// its customers. Aborts (contract) if the digraph is cyclic.
[[nodiscard]] std::vector<AsId> pc_topological_order(const AsGraph& g);

/// True iff the underlying undirected graph is connected.
[[nodiscard]] bool is_connected(const AsGraph& g);

/// Degree of every AS, useful for power-law checks and content-provider
/// ranking (paper ranks by #providers + #peers).
[[nodiscard]] std::vector<std::size_t> degrees(const AsGraph& g);

}  // namespace mifo::topo
