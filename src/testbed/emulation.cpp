#include "testbed/emulation.hpp"

#include "common/contracts.hpp"
#include "dataplane/change_log.hpp"
#include "testbed/wiring.hpp"

namespace mifo::testbed {

void Emulation::enable_mifo(const std::vector<AsId>& ases,
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
    net->add_periodic(daemon_interval,
                      [daemon](dp::Network& n, SimTime now) {
                        daemon->tick(n, now);
                      });
  }
}

const HostAttachment& Emulation::attachment(HostId h) const {
  for (const auto& a : hosts) {
    if (a.host == h) return a;
  }
  MIFO_EXPECTS(false && "unknown host");
  return hosts.front();  // unreachable
}

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
  for (const auto* eg : egresses) {
    net.router(eg->router).fib().set_alt(out.dst, eg->port);
    net.router(eg->router).config().enforce_tag_check = false;
    if (auto* log = net.change_log()) log->note_config(eg->router);
  }
  out.ring = ring;
  return out;
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

Emulation EmulationBuilder::finalize() {
  Emulation em;
  em.net = std::make_unique<dp::Network>();
  em.plan = std::make_unique<bgp::IbgpPlan>(g_, expand_);

  std::vector<std::vector<core::PrefixRoutes>> prefix_routes;
  wire_network(*em.net, g_, *em.plan, params_, pending_hosts_, em.wirings,
               em.hosts, prefix_routes);

  // Daemons (constructed for every AS; only ticked once enabled).
  em.daemons.reserve(g_.num_ases());
  for (std::size_t i = 0; i < g_.num_ases(); ++i) {
    em.daemons.push_back(std::make_unique<core::MifoDaemon>(
        em.wirings[i], std::move(prefix_routes[i])));
  }

  return em;
}

}  // namespace mifo::testbed
