// One BGP speaker per AS: Adj-RIB-In, the Gao–Rexford decision process and
// export policy, and generation of outbound UPDATEs when the best route for
// a prefix changes.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "bgp/route.hpp"
#include "bgpd/message.hpp"
#include "topo/as_graph.hpp"

namespace mifo::bgpd {

/// An Adj-RIB-In entry: a neighbor's current announcement for one prefix.
struct RibIn {
  AsId neighbor;
  std::vector<AsId> as_path;  ///< neighbor first, origin last
  bgp::RouteClass cls = bgp::RouteClass::None;

  [[nodiscard]] bgp::Route as_route() const {
    return bgp::Route{cls, static_cast<std::uint16_t>(as_path.size()),
                      neighbor};
  }
};

/// Outbound update with its addressee.
struct OutboundUpdate {
  AsId to;
  UpdateMsg msg;
};

class Speaker {
 public:
  Speaker(AsId self, const topo::AsGraph& g) : self_(self), graph_(&g) {}

  [[nodiscard]] AsId id() const { return self_; }

  /// Originate our own prefix: returns the announcements to every neighbor.
  [[nodiscard]] std::vector<OutboundUpdate> originate();

  /// Withdraw our own prefix.
  [[nodiscard]] std::vector<OutboundUpdate> withdraw_origin();

  /// Process one inbound update; returns the updates we must send in turn
  /// (empty when our best route for the prefix did not change).
  [[nodiscard]] std::vector<OutboundUpdate> receive(const UpdateMsg& msg,
                                                    AsId from);

  /// Current best route towards `dest` (None when unknown). For our own
  /// originated prefix this is a Self route.
  [[nodiscard]] bgp::Route best(AsId dest) const;

  /// The full AS path of the current best route (empty when none / self).
  [[nodiscard]] std::vector<AsId> best_path(AsId dest) const;

  /// All Adj-RIB-In entries for a prefix (MIFO's alternative paths).
  [[nodiscard]] std::vector<RibIn> rib_in(AsId dest) const;

  // Telemetry.
  std::uint64_t updates_received = 0;
  std::uint64_t updates_sent = 0;
  std::uint64_t loops_rejected = 0;

 private:
  struct PrefixState {
    std::unordered_map<std::uint32_t, RibIn> in;  ///< by neighbor id
    AsId best_neighbor = AsId::invalid();  ///< invalid = no route
    bool originated = false;
    /// What we last advertised (empty = withdrawn / never announced) and
    /// the class it was exported under — the diff against this drives
    /// update generation.
    std::vector<AsId> adv_path;
    bgp::RouteClass adv_cls = bgp::RouteClass::None;
  };

  /// Re-runs the decision process; returns outbound updates if the best
  /// changed (announcement or withdrawal per the export policy).
  std::vector<OutboundUpdate> decide(AsId dest, PrefixState& st);

  AsId self_;
  const topo::AsGraph* graph_;
  std::unordered_map<std::uint32_t, PrefixState> table_;  ///< by dest AS id
};

}  // namespace mifo::bgpd
