// The per-prefix install pass: EmulationBuilder programs every host prefix
// through it at build time, and testbed::reinstall_prefix re-runs it when a
// withdrawn prefix is re-announced.
//
// `NetT` is dp::Network or dp::ShardedNetwork; both expose the same
// owner-replica `router(r).fib()` surface, so the serial oracle and the
// sharded plane get their FIBs from the same code.
#pragma once

#include <vector>

#include "bgp/route_store.hpp"
#include "common/contracts.hpp"
#include "core/daemon.hpp"
#include "testbed/emulation.hpp"
#include "topo/as_graph.hpp"

namespace mifo::testbed {

/// Programs `att`'s prefix into every AS from `routes`, the converged routes
/// towards its owner. The owner's routers deliver towards the attachment
/// router and its host port; every other AS with a route heads for the
/// border router facing its best next hop. Each such AS's PrefixRoutes (the
/// default neighbor, then the neighbors whose RIB row offers the prefix, in
/// neighbor order) goes to `sink(as, pr)`; an AS without a route gets no FIB
/// entry and no sink call.
template <typename NetT, typename Sink>
void install_prefix(NetT& net, const topo::AsGraph& g,
                    const std::vector<core::AsWiring>& wirings,
                    const HostAttachment& att, const bgp::RouteStore& routes,
                    Sink&& sink) {
  for (const core::AsWiring& w : wirings) {
    if (w.as == att.as) {
      for (const RouterId r : w.routers) {
        net.router(r).fib().set_route(
            att.addr, w.port_towards(r, att.router, att.port));
      }
      sink(w.as, core::PrefixRoutes{att.addr, AsId::invalid(), {}});
      continue;
    }
    const bgp::Route& best = routes.best(w.as);
    if (!best.valid()) continue;  // unreachable: no FIB entry
    const auto* eg = w.egress_to(best.next_hop);
    MIFO_ASSERT(eg != nullptr);
    for (const RouterId r : w.routers) {
      net.router(r).fib().set_route(att.addr,
                                    w.port_towards(r, eg->router, eg->port));
    }
    core::PrefixRoutes pr{att.addr, best.next_hop, {}};
    for (const auto& nb : g.neighbors(w.as)) {
      if (nb.as != best.next_hop && routes.rib_from(w.as, nb.as)) {
        pr.alternatives.push_back(nb.as);
      }
    }
    sink(w.as, std::move(pr));
  }
}

}  // namespace mifo::testbed
