#include "bgp/ibgp.hpp"

#include "common/contracts.hpp"

namespace mifo::bgp {

namespace {
std::uint64_t key(AsId as, AsId neighbor) {
  return (static_cast<std::uint64_t>(as.value()) << 32) | neighbor.value();
}
}  // namespace

IbgpPlan::IbgpPlan(const topo::AsGraph& g, const std::vector<bool>& expand) {
  MIFO_EXPECTS(expand.size() == g.num_ases());
  expanded_ = expand;
  per_as_.resize(g.num_ases());
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    const AsId as(static_cast<std::uint32_t>(i));
    if (expand[i]) {
      for (const auto& nb : g.neighbors(as)) {
        const RouterId id(static_cast<std::uint32_t>(routers_.size()));
        routers_.push_back(BorderRouter{id, as, nb.as});
        per_as_[i].push_back(id);
        border_index_.emplace(key(as, nb.as), id);
      }
      // A degenerate expanded AS with no neighbors still needs one router.
      if (per_as_[i].empty()) {
        const RouterId id(static_cast<std::uint32_t>(routers_.size()));
        routers_.push_back(BorderRouter{id, as, AsId::invalid()});
        per_as_[i].push_back(id);
      }
    } else {
      const RouterId id(static_cast<std::uint32_t>(routers_.size()));
      routers_.push_back(BorderRouter{id, as, AsId::invalid()});
      per_as_[i].push_back(id);
    }
  }
}

const BorderRouter& IbgpPlan::router(RouterId id) const {
  MIFO_EXPECTS(id.value() < routers_.size());
  return routers_[id.value()];
}

const std::vector<RouterId>& IbgpPlan::routers_of(AsId as) const {
  MIFO_EXPECTS(as.value() < per_as_.size());
  return per_as_[as.value()];
}

RouterId IbgpPlan::border_towards(AsId as, AsId neighbor) const {
  MIFO_EXPECTS(as.value() < per_as_.size());
  if (!expanded_[as.value()]) return per_as_[as.value()].front();
  const auto it = border_index_.find(key(as, neighbor));
  MIFO_EXPECTS(it != border_index_.end());
  return it->second;
}

bool IbgpPlan::expanded(AsId as) const {
  MIFO_EXPECTS(as.value() < expanded_.size());
  return expanded_[as.value()];
}

}  // namespace mifo::bgp
