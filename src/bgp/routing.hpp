// Gao–Rexford interdomain route computation.
//
// For one destination AS the converged BGP state over the whole topology is
// computed in three linear phases (customer routes, peer routes, provider
// routes); see DESIGN.md §5.1. `DestRoutes` holds only the converged best
// routes: `RouteStore` (route_store.hpp) flattens them into the views every
// consumer reads, and the delta routing table (delta.hpp) rebuilds from
// them. The per-call reference views over `DestRoutes` (`rib_of`,
// `rib_route_from`, `as_path`, `reachable_count`) live beside the tests, in
// tests/oracle/route_reference.hpp, as RouteStore's differential oracle.
#pragma once

#include <span>
#include <vector>

#include "bgp/route.hpp"
#include "topo/as_graph.hpp"

namespace mifo::bgp {

/// Converged routing state towards a single destination AS.
class DestRoutes {
 public:
  DestRoutes(AsId dest, std::vector<Route> best)
      : dest_(dest), best_(std::move(best)) {}

  [[nodiscard]] AsId dest() const { return dest_; }

  /// The AS's best (default) route; `cls == Self` at the destination itself
  /// and `None` where the destination is unreachable.
  [[nodiscard]] const Route& best(AsId as) const;

  /// Read-only view of every AS's best route, indexed by AS id (no copies).
  [[nodiscard]] std::span<const Route> all() const { return best_; }

  [[nodiscard]] std::size_t num_ases() const { return best_.size(); }

 private:
  AsId dest_;
  std::vector<Route> best_;
};

/// Computes converged Gao–Rexford routes towards `dest`. O(E).
[[nodiscard]] DestRoutes compute_routes(const topo::AsGraph& g, AsId dest);

}  // namespace mifo::bgp
