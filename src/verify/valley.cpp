#include "verify/valley.hpp"

#include <cstdint>
#include <optional>
#include <sstream>

#include "topo/relationship.hpp"
#include "verify/state_graph.hpp"

namespace mifo::verify {

namespace {

/// The inter-AS egress relationship of a hop, or nullopt for intra-AS /
/// host-facing hops (which Eq. 3 does not constrain).
std::optional<topo::Rel> egress_rel(std::span<const dp::Router> routers,
                                    dp::Addr dst, const Hop& hop) {
  if (hop.kind == HopKind::AltIbgp) return std::nullopt;
  const dp::Router& from = routers[hop.from.value()];
  const auto fe = from.fib().lookup(dst);
  if (!fe) return std::nullopt;
  const PortId out = hop.kind == HopKind::Default ? fe->out_port : fe->alt_port;
  if (!out.valid()) return std::nullopt;
  const dp::Port& port = from.port(out);
  if (port.kind != dp::PortKind::Ebgp) return std::nullopt;
  return port.neighbor_rel;
}

}  // namespace

std::string ValleyViolation::to_string() const {
  std::ostringstream os;
  os << "dst=" << dst << " valley:";
  detail::write_walk(os, hops);
  if (!hops.empty()) {
    os << " (final hop exits to a " << topo::to_string(rel)
       << " carrying tag=0, Eq. 3 violated)";
  }
  return os.str();
}

ValleyCheck check_valley_freedom(std::span<const dp::Router> routers,
                                 std::span<const dp::Addr> dests) {
  ValleyCheck result;
  result.stats.destinations = dests.size();
  detail::WitnessSearch search(routers.size());
  for (const dp::Addr dst : dests) {
    // One counterexample per destination: the first hop Eq. 3 forbids ends
    // the search, with the walk from the entry to it.
    search.run(routers, dst, detail::host_entry_states(routers, dst),
               result.stats,
               [&](std::uint32_t s, std::span<const detail::Succ> succs) {
                 for (const detail::Succ& succ : succs) {
                   const auto rel = egress_rel(routers, dst, succ.hop);
                   if (!rel || topo::check_bit(succ.hop.tag, *rel)) continue;
                   ValleyViolation v;
                   v.dst = dst;
                   v.rel = *rel;
                   v.hops = search.walk_to(s);
                   v.hops.push_back(succ.hop);
                   result.violations.push_back(std::move(v));
                   result.valley_free = false;
                   return false;
                 }
                 return true;
               });
  }
  return result;
}

ValleyCheck check_valley_freedom(const dp::Network& net) {
  return check_valley_freedom(net.routers(), fib_destinations(net.routers()));
}

}  // namespace mifo::verify
