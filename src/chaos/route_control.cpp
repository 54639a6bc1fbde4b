#include "chaos/route_control.hpp"

#include <vector>

#include "testbed/wiring.hpp"

namespace mifo::chaos {

namespace {

std::vector<AsId> prefix_owners(const testbed::Emulation& em) {
  std::vector<AsId> owners;
  for (const auto& att : em.hosts) owners.push_back(att.as);
  return owners;
}

}  // namespace

RouteController::RouteController(testbed::Emulation& em,
                                 const topo::AsGraph& g)
    : em_(&em), g_(&g), delta_(g, prefix_owners(em)) {}

bool RouteController::apply(const bgp::RouteEvent& ev) {
  last_delta_ = delta_.apply(ev);
  return last_delta_.applied;
}

bool RouteController::session_down(AsId a, AsId b) {
  return apply(bgp::RouteEvent::session_down(a, b));
}

bool RouteController::session_up(AsId a, AsId b) {
  return apply(bgp::RouteEvent::session_up(a, b));
}

bool RouteController::withdraw(AsId owner) {
  if (!apply(bgp::RouteEvent::withdraw(owner))) return false;
  // Remote ASes lose the route entirely: default out_port and (via
  // Fib::remove) any daemon-programmed alt_port riding on the entry go
  // together — a withdrawn prefix must not keep attracting deflections.
  // The owner's own routers keep local delivery: the host did not move.
  dp::Network& net = *em_->net;
  for (const auto& att : em_->hosts) {
    if (att.as != owner) continue;
    for (const auto& wiring : em_->wirings) {
      if (wiring.as == owner) continue;
      em_->daemons[wiring.as.value()]->remove_prefix(net, att.addr);
      for (const RouterId r : wiring.routers) {
        net.router(r).fib().remove(att.addr);
      }
    }
  }
  return true;
}

bool RouteController::reannounce(AsId owner) {
  if (!apply(bgp::RouteEvent::reannounce(owner))) return false;
  // Base-graph routes, not the delta table's masked segment: FIB defaults
  // model the all-sessions-up state, as the builder installed them. The
  // owner kept its local delivery and daemon entry through the withdrawal,
  // so the pass rewrites identical values there.
  dp::Network& net = *em_->net;
  const bgp::RouteStore routes(*g_, owner);
  for (const auto& att : em_->hosts) {
    if (att.as != owner) continue;
    testbed::install_prefix(
        net, *g_, em_->wirings, att, routes,
        [&](AsId as, core::PrefixRoutes pr) {
          em_->daemons[as.value()]->update_prefix(net, std::move(pr));
        });
  }
  return true;
}

}  // namespace mifo::chaos
