// Reachability / blackhole analysis over installed forwarding state.
//
// A destination's deflection graph can *strand* packets: traffic reaches a
// router that has no way to move it onward — no FIB entry at all, a
// returned packet with no alternative left to force, or a default egress
// whose link is down with no alternative to deflect onto. The loop prover
// never sees these (a stranded state is terminal, not cyclic); this
// analysis walks the same reachable state space and reports each stranded
// router with a concrete witness path, like the loop prover's cycles.
//
// Deliberate non-findings: a returned packet whose alternative exists but
// fails the Eq. 3 Tag-Check is Algorithm 1's *intended* line-20 drop (the
// default would cycle, the alt would open a valley — dropping is the
// theorem, not a bug), so it is not reported. This is also the one
// analysis that reads Port::up — which is why the incremental verifier
// re-proves it on a separate port-dirty set, and why the chaos engine leaves
// it off by default: a link-down fault legitimately strands traffic until
// the daemons reconverge, and flagging that window would drown real
// findings.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "dataplane/network.hpp"
#include "verify/deflection_graph.hpp"

namespace mifo::verify {

enum class BlackholeKind : std::uint8_t {
  /// A reachable router has no FIB entry for the destination (line 4 drop
  /// fed by a neighbor that still forwards here).
  NoRoute,
  /// A returned packet (line 11) finds no alternative programmed at all.
  ReturnedNoAlt,
  /// The default egress link is down and no usable alternative exists.
  DefaultDown,
};

[[nodiscard]] const char* to_string(BlackholeKind k);

/// One stranded router for one destination, with the witness walk that
/// reaches it from an ingress state (empty when the stranded state is
/// itself an ingress).
struct Blackhole {
  dp::Addr dst = dp::kInvalidAddr;
  RouterId router = RouterId::invalid();
  BlackholeKind kind = BlackholeKind::NoRoute;
  std::vector<Hop> hops;
  [[nodiscard]] std::string to_string() const;
};

struct ReachabilityCheck {
  bool clean = true;
  /// At most one finding per (destination, router).
  std::vector<Blackhole> blackholes;
  VerifyStats stats;
};

/// Finds every router a destination's reachable deflection graph strands
/// packets at, for the given destinations of any router set indexed by
/// RouterId. Entry states are the loop prover's (host + eBGP ingress).
[[nodiscard]] ReachabilityCheck check_reachability(
    std::span<const dp::Router> routers, std::span<const dp::Addr> dests);

/// The same over every destination found in the network's FIBs.
[[nodiscard]] ReachabilityCheck check_reachability(const dp::Network& net);

}  // namespace mifo::verify
