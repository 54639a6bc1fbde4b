#include "oracle/route_reference.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace mifo::bgp {

std::optional<Route> rib_route_from(const topo::AsGraph& g,
                                    const DestRoutes& routes, AsId as,
                                    AsId neighbor) {
  const auto rel_to_as = g.rel(as, neighbor);  // what neighbor is to `as`
  MIFO_EXPECTS(rel_to_as.has_value());
  const Route& offer = routes.best(neighbor);
  if (!offer.valid()) return std::nullopt;
  // What `as` is to the neighbor decides whether the neighbor exports.
  const topo::Rel as_is_to_neighbor = topo::reverse(*rel_to_as);
  if (!may_export(offer.cls, as_is_to_neighbor)) return std::nullopt;
  // BGP loop detection: an announcement whose AS path already contains the
  // importer is rejected on arrival, so it never reaches `as`'s RIB. The
  // neighbor's announced path is its best chain; walk it.
  AsId hop = neighbor;
  while (hop != routes.dest()) {
    hop = routes.best(hop).next_hop;
    if (hop == as) return std::nullopt;  // poisoned
  }
  return Route{classify(*rel_to_as),
               static_cast<std::uint16_t>(offer.path_len + 1), neighbor};
}

std::vector<Route> rib_of(const topo::AsGraph& g, const DestRoutes& routes,
                          AsId as) {
  std::vector<Route> rib;
  if (as == routes.dest()) return rib;
  for (const auto& nb : g.neighbors(as)) {
    if (auto r = rib_route_from(g, routes, as, nb.as)) rib.push_back(*r);
  }
  std::sort(rib.begin(), rib.end(),
            [](const Route& a, const Route& b) { return a.better_than(b); });
  return rib;
}

std::vector<AsId> as_path(const topo::AsGraph& g, const DestRoutes& routes,
                          AsId src) {
  (void)g;
  std::vector<AsId> path;
  if (!routes.best(src).valid()) return path;
  AsId cur = src;
  path.push_back(cur);
  while (cur != routes.dest()) {
    const Route& r = routes.best(cur);
    MIFO_ASSERT(r.valid());
    cur = r.next_hop;
    path.push_back(cur);
    MIFO_ASSERT(path.size() <= routes.num_ases() + 1);  // loop guard
  }
  return path;
}

std::size_t reachable_count(const DestRoutes& routes) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < routes.num_ases(); ++i) {
    if (routes.best(AsId(static_cast<std::uint32_t>(i))).valid()) ++n;
  }
  return n;
}

}  // namespace mifo::bgp
