// Live BGP route churn for a running emulation.
//
// The testbed builder installs FIBs and daemon prefix knowledge once, from
// converged per-destination routes (testbed::install_prefix). Chaos needs
// the control plane to *move*: withdrawing an origin must tear the prefix's
// FIB entries (default and daemon-programmed alt) out of every other AS and
// drop it from their daemons, and re-announcement must put them back.
//
// The routing-plane view is a bgp::DeltaRoutingTable over the prefix-owning
// destinations (DESIGN.md §5.1b): every withdraw / reannounce / session
// event is applied to it as a delta recompute of only the affected
// destinations, with the from-scratch rebuild retained as the differential
// oracle. Per-event DeltaStats feed the chaos engine's recovery spans and
// the verifier's dirty sets.
//
// Re-announcement reinstalls through the builder's own install pass, fed
// from the base graph's converged routes: FIB defaults model the
// all-sessions-up state, exactly as the builder installed them. Session
// events move the delta table only; the packet plane's port state is the
// chaos engine's business.
#pragma once

#include "bgp/delta.hpp"
#include "testbed/emulation.hpp"
#include "topo/as_graph.hpp"

namespace mifo::chaos {

class RouteController {
 public:
  /// Tracks every prefix-owning AS of `em`. `em` and `g` must outlive the
  /// controller.
  RouteController(testbed::Emulation& em, const topo::AsGraph& g);

  /// Withdraws all prefixes originated by `owner`: evicts the FIB entries
  /// (default route and any alt riding on it) from every other AS's routers
  /// and drops the prefix from their daemons. Returns false when `owner`
  /// owns no prefix or is already withdrawn.
  bool withdraw(AsId owner);

  /// Re-announces `owner`'s prefixes and reinstalls FIB entries and daemon
  /// PrefixRoutes through testbed::install_prefix. Returns false when
  /// `owner` owns no prefix or is not currently withdrawn.
  bool reannounce(AsId owner);

  /// Marks the eBGP session `a`–`b` down (up) in the delta routing table,
  /// recomputing only the destinations whose best tree the edge carries
  /// (RIB-row-only changes are view-patched without a decision run).
  /// Returns false when the event is a no-op (not adjacent, already in that
  /// state).
  bool session_down(AsId a, AsId b);
  bool session_up(AsId a, AsId b);

  /// The delta-maintained per-destination route segments (DESIGN.md §5.1b);
  /// its epoch counts the applied routing events.
  [[nodiscard]] const bgp::DeltaRoutingTable& delta() const { return delta_; }
  [[nodiscard]] bgp::DeltaRoutingTable& delta() { return delta_; }

  /// Stats of the most recent delta event (applied or not).
  [[nodiscard]] const bgp::DeltaStats& last_delta_stats() const {
    return last_delta_;
  }

 private:
  bool apply(const bgp::RouteEvent& ev);

  testbed::Emulation* em_;
  const topo::AsGraph* g_;
  bgp::DeltaRoutingTable delta_;
  bgp::DeltaStats last_delta_;
};

}  // namespace mifo::chaos
