#include "verify/reachability.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>

#include "topo/relationship.hpp"
#include "verify/state_graph.hpp"

namespace mifo::verify {

namespace {

/// Whether the programmed alternative can actually move a packet carrying
/// `tag` onward: the port must exist, be up, lead to a router, and (for an
/// eBGP alt under an enforced Tag-Check) pass Eq. 3.
bool alt_usable(const dp::Router& router, const dp::FibEntry& fe, bool tag) {
  if (!fe.alt_port.valid()) return false;
  const dp::Port& alt = router.port(fe.alt_port);
  if (!alt.up) return false;
  if (alt.kind == dp::PortKind::Host || !alt.peer.is_router()) return false;
  if (alt.kind == dp::PortKind::Ebgp && router.config().enforce_tag_check &&
      !topo::check_bit(tag, alt.neighbor_rel)) {
    return false;
  }
  return true;
}

/// How a packet in state (router, tag, returned) is stranded at `router`,
/// or nullopt when it can move on.
std::optional<BlackholeKind> stranded(const dp::Router& router, dp::Addr dst,
                                      bool tag, bool returned) {
  const auto fe = router.fib().lookup(dst);
  if (!fe) return BlackholeKind::NoRoute;
  if (returned) {
    // The default would cycle (that is what `returned` means); with the
    // alternative structurally unusable the packet is stranded. An alt
    // that merely fails the Tag-Check is the intended line-20 drop.
    const bool has_alt =
        fe->alt_port.valid() &&
        router.port(fe->alt_port).kind != dp::PortKind::Host &&
        router.port(fe->alt_port).peer.is_router() &&
        router.port(fe->alt_port).up;
    if (!has_alt) return BlackholeKind::ReturnedNoAlt;
    return std::nullopt;
  }
  if (!router.port(fe->out_port).up && !alt_usable(router, *fe, tag)) {
    return BlackholeKind::DefaultDown;
  }
  return std::nullopt;
}

}  // namespace

const char* to_string(BlackholeKind k) {
  switch (k) {
    case BlackholeKind::NoRoute:
      return "no-route";
    case BlackholeKind::ReturnedNoAlt:
      return "returned-no-alt";
    case BlackholeKind::DefaultDown:
      return "default-down";
  }
  return "?";
}

std::string Blackhole::to_string() const {
  std::ostringstream os;
  os << "dst=" << dst << " blackhole[" << verify::to_string(kind) << "] at r"
     << router.value() << ":";
  if (hops.empty()) {
    os << " stranded at an ingress state";
  } else {
    detail::write_walk(os, hops);
  }
  return os.str();
}

ReachabilityCheck check_reachability(std::span<const dp::Router> routers,
                                     std::span<const dp::Addr> dests) {
  ReachabilityCheck result;
  result.stats.destinations = dests.size();
  detail::WitnessSearch search(routers.size());
  std::vector<std::uint8_t> reported(routers.size());

  for (const dp::Addr dst : dests) {
    std::fill(reported.begin(), reported.end(), 0);
    search.run(
        routers, dst, detail::entry_states(routers, dst), result.stats,
        [&](std::uint32_t s, std::span<const detail::Succ>) {
          const std::uint32_t r = detail::state_router(s);
          const std::optional<BlackholeKind> kind =
              stranded(routers[r], dst, detail::state_tag(s),
                       detail::state_returned(s));
          if (kind && !reported[r]) {
            reported[r] = 1;
            result.blackholes.push_back(
                Blackhole{dst, RouterId(r), *kind, search.walk_to(s)});
            result.clean = false;
          }
          return true;  // every reachable state is classified
        });
  }
  return result;
}

ReachabilityCheck check_reachability(const dp::Network& net) {
  return check_reachability(net.routers(), fib_destinations(net.routers()));
}

}  // namespace mifo::verify
