// Network-wiring template shared by the serial and the sharded emulation
// builders (emulation.cpp / sharded_emulation.cpp), and the per-prefix
// install pass it runs, which chaos::RouteController re-runs when a
// withdrawn prefix is re-announced.
//
// `NetT` is dp::Network or dp::ShardedNetwork — both expose the same
// construction surface (add_router/connect_ebgp/connect_ibgp/add_host/
// connect_host/host_addr/router). Keeping one template instead of two copies
// is what makes the differential guarantee meaningful: the serial oracle and
// the sharded plane are wired by the *same* code, so an outcome difference
// can only come from the engines.
#pragma once

#include <vector>

#include "bgp/ibgp.hpp"
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
/// entry and no sink call. Both builders install every host prefix through
/// this, and chaos::RouteController reinstalls a re-announced one.
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

/// Wires routers, eBGP/iBGP links and hosts into `net` per the IbgpPlan and
/// programs BGP-derived FIBs for every pending host. Fills `wirings`,
/// `hosts` and the per-AS `prefix_routes` the MIFO daemons are built from.
template <typename NetT>
void wire_network(NetT& net, const topo::AsGraph& g, const bgp::IbgpPlan& plan,
                  const BuildParams& params,
                  const std::vector<AsId>& pending_hosts,
                  std::vector<core::AsWiring>& wirings,
                  std::vector<HostAttachment>& hosts,
                  std::vector<std::vector<core::PrefixRoutes>>& prefix_routes) {
  // Routers (ids in the network match the plan's router ids).
  for (std::size_t i = 0; i < plan.num_routers(); ++i) {
    const auto& br = plan.router(RouterId(static_cast<std::uint32_t>(i)));
    const RouterId created = net.add_router(br.as);
    MIFO_ASSERT(created == br.id);
  }

  wirings.resize(g.num_ases());
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    const AsId as(static_cast<std::uint32_t>(i));
    wirings[i].as = as;
    wirings[i].routers = plan.routers_of(as);
  }

  // eBGP links: one physical link per AS adjacency, between the two facing
  // border routers.
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    const AsId a(static_cast<std::uint32_t>(i));
    for (const auto& nb : g.neighbors(a)) {
      if (!(a < nb.as)) continue;  // each adjacency once
      const RouterId ra = plan.border_towards(a, nb.as);
      const RouterId rb = plan.border_towards(nb.as, a);
      const auto [pa, pb] = net.connect_ebgp(ra, rb, nb.rel, params.ebgp_rate,
                                             params.ebgp_delay);
      wirings[a.value()].egresses.push_back(
          core::AsWiring::Egress{nb.as, ra, pa, nb.rel});
      wirings[nb.as.value()].egresses.push_back(
          core::AsWiring::Egress{a, rb, pb, topo::reverse(nb.rel)});
    }
  }

  // iBGP full mesh inside expanded ASes.
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    const auto& routers = wirings[i].routers;
    for (std::size_t x = 0; x < routers.size(); ++x) {
      for (std::size_t y = x + 1; y < routers.size(); ++y) {
        const auto [px, py] = net.connect_ibgp(routers[x], routers[y],
                                               params.ibgp_rate,
                                               params.ibgp_delay);
        wirings[i].intra.push_back(
            core::AsWiring::IntraPort{routers[x], routers[y], px});
        wirings[i].intra.push_back(
            core::AsWiring::IntraPort{routers[y], routers[x], py});
      }
    }
  }

  // Hosts.
  for (const AsId as : pending_hosts) {
    const RouterId attach = plan.routers_of(as).front();
    const HostId h = net.add_host();
    const PortId rp =
        net.connect_host(attach, h, params.host_rate, params.host_delay);
    hosts.push_back(HostAttachment{h, as, attach, rp, net.host_addr(h)});
  }

  // FIBs + per-AS prefix knowledge, one destination prefix per host.
  prefix_routes.assign(g.num_ases(), {});
  for (const auto& att : hosts) {
    install_prefix(net, g, wirings, att, bgp::RouteStore(g, att.as),
                   [&](AsId as, core::PrefixRoutes pr) {
                     prefix_routes[as.value()].push_back(std::move(pr));
                   });
  }
}

}  // namespace mifo::testbed
