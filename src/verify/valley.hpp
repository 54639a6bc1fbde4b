// Gao–Rexford valley-freedom prover over installed forwarding state.
//
// The loop prover (deflection_graph.hpp) proves packets cannot cycle; this
// prover proves they cannot traverse a *valley* — an AS-level path that
// goes up (or sideways) again after having gone down or sideways, i.e. a
// path a provider or peer is made to transit for free. MIFO's tag is
// exactly the Gao–Rexford phase bit: tag=1 while the last inter-AS hop
// came up from a customer, tag=0 once the path has crossed a peering or
// come down from a provider. A path is valley-free iff every inter-AS hop
// satisfies Eq. 3, check_bit(tag, rel) — the pairwise form of
// "up* flat? down*" (topo::is_valley_free checks the same thing over a
// whole path; here it is checked edge-locally over the whole graph).
//
// Algorithm 1 enforces Eq. 3 on *deflections* (line 16–20) but forwards
// *default* routes unchecked — BGP is trusted to have installed
// valley-free best paths, and deflections are trusted to be RIB-backed
// (the AltMissingFromRib lint). This prover discharges that trust: it
// walks every state reachable from host-origin traffic and reports a
// concrete counterexample path for any inter-AS hop — default or
// deflected — that Eq. 3 forbids. A planted valley ring (mifo-verify
// --mutate-valley) or a non-RIB-backed alternative shows up here with the
// exact hop sequence, even when it happens not to close into a loop.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "dataplane/network.hpp"
#include "verify/deflection_graph.hpp"

namespace mifo::verify {

/// A concrete valley: hops walk from a host-origin entry state to the
/// offending inter-AS hop (the last element), which violates Eq. 3 with
/// the tag it carries.
struct ValleyViolation {
  dp::Addr dst = dp::kInvalidAddr;
  std::vector<Hop> hops;
  topo::Rel rel = topo::Rel::Peer;  ///< relationship of the offending egress
  [[nodiscard]] std::string to_string() const;
};

struct ValleyCheck {
  bool valley_free = true;
  /// At most one counterexample per destination.
  std::vector<ValleyViolation> violations;
  VerifyStats stats;
};

/// Proves (or refutes) valley-freedom of every path host-origin traffic can
/// take through the installed forwarding state, for the given destinations
/// of any router set indexed by RouterId (the incremental verifier's entry
/// point, one destination at a time).
[[nodiscard]] ValleyCheck check_valley_freedom(
    std::span<const dp::Router> routers, std::span<const dp::Addr> dests);

/// The same over every destination found in the network's FIBs.
[[nodiscard]] ValleyCheck check_valley_freedom(const dp::Network& net);

}  // namespace mifo::verify
