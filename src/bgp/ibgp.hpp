// Router-level expansion of selected ASes (the paper expands tier-1 ASes:
// one border router per inter-AS adjacency, full iBGP mesh inside the AS).
//
// The plan is a pure description — the packet-level data plane and the
// testbed builder consume it to instantiate Router objects and links.
#pragma once

#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "topo/as_graph.hpp"

namespace mifo::bgp {

struct BorderRouter {
  RouterId id;
  AsId as;                            ///< owning AS
  AsId external_neighbor;             ///< the eBGP-adjacent AS, or invalid()
                                      ///< for a collapsed single-router AS
};

class IbgpPlan {
 public:
  /// `expand[i]` selects ASes that get one border router per adjacency plus
  /// a full iBGP mesh; other ASes collapse to a single router.
  IbgpPlan(const topo::AsGraph& g, const std::vector<bool>& expand);

  [[nodiscard]] std::size_t num_routers() const { return routers_.size(); }
  [[nodiscard]] const BorderRouter& router(RouterId id) const;
  [[nodiscard]] const std::vector<RouterId>& routers_of(AsId as) const;

  /// The border router of `as` that faces `neighbor` (the eBGP speaker for
  /// that adjacency). For collapsed ASes this is the AS's single router.
  [[nodiscard]] RouterId border_towards(AsId as, AsId neighbor) const;

  [[nodiscard]] bool expanded(AsId as) const;

 private:
  std::vector<BorderRouter> routers_;
  std::vector<std::vector<RouterId>> per_as_;
  std::vector<bool> expanded_;
  std::unordered_map<std::uint64_t, RouterId> border_index_;
};

}  // namespace mifo::bgp
