// The original per-call views over `bgp::DestRoutes`, kept beside the tests
// as the differential oracle for `bgp::RouteStore`: every store view must be
// element-identical to these on every instance
// (tests/bgp/test_route_store_diff.cpp). Each call walks best-route chains
// and returns a fresh vector; the library serves the same answers from flat
// arrays.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "bgp/route.hpp"
#include "bgp/routing.hpp"
#include "topo/as_graph.hpp"

namespace mifo::bgp {

/// The route `as` holds in its RIB from neighbor `neighbor` — i.e. what the
/// neighbor exports to `as` (its best route, subject to the export rule),
/// reclassified from `as`'s perspective. nullopt when the neighbor exports
/// nothing for this destination.
[[nodiscard]] std::optional<Route> rib_route_from(const topo::AsGraph& g,
                                                  const DestRoutes& routes,
                                                  AsId as, AsId neighbor);

/// All RIB entries of `as` towards the destination, one per exporting
/// neighbor, sorted best-first by the decision process.
[[nodiscard]] std::vector<Route> rib_of(const topo::AsGraph& g,
                                        const DestRoutes& routes, AsId as);

/// The default forwarding path from `src` to the destination (sequence of
/// ASes including both endpoints); empty when unreachable.
[[nodiscard]] std::vector<AsId> as_path(const topo::AsGraph& g,
                                        const DestRoutes& routes, AsId src);

/// Number of ASes that can reach the destination at all.
[[nodiscard]] std::size_t reachable_count(const DestRoutes& routes);

}  // namespace mifo::bgp
