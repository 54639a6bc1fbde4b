#include "testbed/emulation.hpp"

#include <type_traits>

#include "bgp/ibgp.hpp"
#include "common/contracts.hpp"
#include "dataplane/change_log.hpp"
#include "testbed/wiring.hpp"

namespace mifo::testbed {

template <typename NetT>
void BasicEmulation<NetT>::enable_mifo(const std::vector<AsId>& ases,
                                       const dp::RouterConfig& base_config,
                                       SimTime daemon_interval) {
  for (const AsId as : ases) {
    MIFO_EXPECTS(as.value() < daemons.size());
    for (const RouterId r : wirings[as.value()].routers) {
      dp::RouterConfig cfg = base_config;
      cfg.mifo_enabled = true;
      net->router(r).config() = cfg;
    }
    core::MifoDaemon* daemon = daemons[as.value()].get();
    const auto tick = [daemon](dp::Network& n, SimTime now) {
      daemon->tick(n, now);
    };
    if constexpr (std::is_same_v<NetT, dp::ShardedNetwork>) {
      net->add_periodic(as, daemon_interval, tick);
    } else {
      net->add_periodic(daemon_interval, tick);
    }
  }
}

template <typename NetT>
const HostAttachment& BasicEmulation<NetT>::attachment(HostId h) const {
  for (const auto& a : hosts) {
    if (a.host == h) return a;
  }
  MIFO_EXPECTS(false && "unknown host");
  return hosts.front();  // unreachable
}

template struct BasicEmulation<dp::Network>;
template struct BasicEmulation<dp::ShardedNetwork>;

namespace {

/// Three mutually-peered ASes, or empty when `g` has none.
std::vector<AsId> find_peering_triangle(const topo::AsGraph& g) {
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    const AsId a(static_cast<std::uint32_t>(i));
    const auto nbs = g.neighbors(a);
    for (std::size_t x = 0; x < nbs.size(); ++x) {
      if (nbs[x].rel != topo::Rel::Peer || !(a < nbs[x].as)) continue;
      for (std::size_t y = x + 1; y < nbs.size(); ++y) {
        if (nbs[y].rel != topo::Rel::Peer || !(a < nbs[y].as)) continue;
        if (g.rel(nbs[x].as, nbs[y].as) == topo::Rel::Peer) {
          return {a, nbs[x].as, nbs[y].as};
        }
      }
    }
  }
  return {};
}

}  // namespace

ValleyRing plant_valley_ring(Emulation& em, const topo::AsGraph& g) {
  ValleyRing out;
  const std::vector<AsId> ring = find_peering_triangle(g);
  if (ring.empty()) {
    out.error = "no peering triangle in topology";
    return out;
  }
  // The prefix must be owned outside the ring, else local delivery
  // terminates the walk.
  for (const auto& att : em.hosts) {
    if (att.as != ring[0] && att.as != ring[1] && att.as != ring[2]) {
      out.dst = att.addr;
      break;
    }
  }
  if (out.dst == dp::kInvalidAddr) {
    out.error = "no prefix owned outside the ring";
    return out;
  }
  dp::Network& net = *em.net;
  std::vector<const core::AsWiring::Egress*> egresses;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto* eg = em.wirings[ring[i].value()].egress_to(ring[(i + 1) % 3]);
    if (eg == nullptr || !net.router(eg->router).fib().contains(out.dst)) {
      out.error = "mutation target unreachable";
      return out;
    }
    egresses.push_back(eg);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    const auto* eg = egresses[i];
    net.router(eg->router).fib().set_alt(out.dst, eg->port);
    net.router(eg->router).config().enforce_tag_check = false;
    if (auto* log = net.change_log()) log->note_config(eg->router);
    em.daemons[ring[i].value()]->forget(out.dst);
  }
  out.ring = ring;
  return out;
}

bool withdraw_prefix(Emulation& em, AsId owner) {
  dp::Network& net = *em.net;
  bool owns = false;
  for (const auto& att : em.hosts) {
    if (att.as != owner) continue;
    owns = true;
    for (const auto& wiring : em.wirings) {
      if (wiring.as == owner) continue;
      em.daemons[wiring.as.value()]->remove_prefix(net, att.addr);
      for (const RouterId r : wiring.routers) {
        net.router(r).fib().remove(att.addr);
      }
    }
  }
  return owns;
}

void reinstall_prefix(Emulation& em, const topo::AsGraph& g, AsId owner) {
  // The owner kept its local delivery and daemon entry through the
  // withdrawal, so the pass rewrites identical values there.
  dp::Network& net = *em.net;
  const bgp::RouteStore routes(g, owner);
  for (const auto& att : em.hosts) {
    if (att.as != owner) continue;
    install_prefix(net, g, em.wirings, att, routes,
                   [&](AsId as, core::PrefixRoutes pr) {
                     em.daemons[as.value()]->update_prefix(net, std::move(pr));
                   });
  }
}

EmulationBuilder::EmulationBuilder(const topo::AsGraph& g,
                                   std::vector<bool> expand,
                                   BuildParams params)
    : g_(g), expand_(std::move(expand)), params_(params) {
  MIFO_EXPECTS(expand_.size() == g.num_ases());
}

HostId EmulationBuilder::attach_host(AsId as) {
  MIFO_EXPECTS(as.value() < g_.num_ases());
  pending_hosts_.push_back(as);
  return HostId(static_cast<std::uint32_t>(pending_hosts_.size() - 1));
}

template <typename NetT>
BasicEmulation<NetT> EmulationBuilder::build(std::unique_ptr<NetT> net) const {
  // Paper testbed: Gigabit Ethernet on every link. The iBGP rate is passed
  // explicitly: the engines default intra-AS links to 10 Gbps.
  constexpr Mbps kLinkRate = kGigabit;
  constexpr SimTime kIbgpDelay = 20e-6;
  constexpr SimTime kHostDelay = 20e-6;

  BasicEmulation<NetT> em;
  em.net = std::move(net);
  NetT& n = *em.net;
  const bgp::IbgpPlan plan(g_, expand_);

  // Routers (ids in the network match the plan's router ids).
  for (std::size_t i = 0; i < plan.num_routers(); ++i) {
    const auto& br = plan.router(RouterId(static_cast<std::uint32_t>(i)));
    const RouterId created = n.add_router(br.as);
    MIFO_ASSERT(created == br.id);
  }

  std::vector<core::AsWiring>& wirings = em.wirings;
  wirings.resize(g_.num_ases());
  for (std::size_t i = 0; i < g_.num_ases(); ++i) {
    const AsId as(static_cast<std::uint32_t>(i));
    wirings[i].as = as;
    wirings[i].routers = plan.routers_of(as);
  }

  // eBGP links: one physical link per AS adjacency, between the two facing
  // border routers.
  for (std::size_t i = 0; i < g_.num_ases(); ++i) {
    const AsId a(static_cast<std::uint32_t>(i));
    for (const auto& nb : g_.neighbors(a)) {
      if (!(a < nb.as)) continue;  // each adjacency once
      const RouterId ra = plan.border_towards(a, nb.as);
      const RouterId rb = plan.border_towards(nb.as, a);
      const auto [pa, pb] =
          n.connect_ebgp(ra, rb, nb.rel, kLinkRate, params_.ebgp_delay);
      wirings[a.value()].egresses.push_back(
          core::AsWiring::Egress{nb.as, ra, pa, nb.rel});
      wirings[nb.as.value()].egresses.push_back(
          core::AsWiring::Egress{a, rb, pb, topo::reverse(nb.rel)});
    }
  }

  // iBGP full mesh inside expanded ASes.
  for (core::AsWiring& w : wirings) {
    const auto& routers = w.routers;
    for (std::size_t x = 0; x < routers.size(); ++x) {
      for (std::size_t y = x + 1; y < routers.size(); ++y) {
        const auto [px, py] =
            n.connect_ibgp(routers[x], routers[y], kLinkRate, kIbgpDelay);
        w.intra.push_back(
            core::AsWiring::IntraPort{routers[x], routers[y], px});
        w.intra.push_back(
            core::AsWiring::IntraPort{routers[y], routers[x], py});
      }
    }
  }

  // Hosts.
  for (const AsId as : pending_hosts_) {
    const RouterId attach = plan.routers_of(as).front();
    const HostId h = n.add_host();
    const PortId rp = n.connect_host(attach, h, kLinkRate, kHostDelay);
    em.hosts.push_back(HostAttachment{h, as, attach, rp, n.host_addr(h)});
  }

  // FIBs + per-AS prefix knowledge, one destination prefix per host.
  std::vector<std::vector<core::PrefixRoutes>> prefix_routes(g_.num_ases());
  for (const auto& att : em.hosts) {
    install_prefix(n, g_, wirings, att, bgp::RouteStore(g_, att.as),
                   [&](AsId as, core::PrefixRoutes pr) {
                     prefix_routes[as.value()].push_back(std::move(pr));
                   });
  }

  // Daemons (constructed for every AS; only ticked once enabled).
  em.daemons.reserve(g_.num_ases());
  for (std::size_t i = 0; i < g_.num_ases(); ++i) {
    em.daemons.push_back(std::make_unique<core::MifoDaemon>(
        wirings[i], std::move(prefix_routes[i])));
  }
  return em;
}

Emulation EmulationBuilder::finalize() const {
  return build(std::make_unique<dp::Network>());
}

ShardedEmulation EmulationBuilder::finalize(std::size_t num_shards,
                                            dp::ShardConfig cfg) const {
  return build(std::make_unique<dp::ShardedNetwork>(num_shards, cfg));
}

}  // namespace mifo::testbed
