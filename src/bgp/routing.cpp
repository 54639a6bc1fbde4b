#include "bgp/routing.hpp"

#include <deque>
#include <limits>

#include "common/contracts.hpp"

namespace mifo::bgp {

namespace {
constexpr std::uint16_t kInf = std::numeric_limits<std::uint16_t>::max();
}

const Route& DestRoutes::best(AsId as) const {
  MIFO_EXPECTS(as.value() < best_.size());
  return best_[as.value()];
}

DestRoutes compute_routes(const topo::AsGraph& g, AsId dest) {
  MIFO_EXPECTS(dest.value() < g.num_ases());
  const std::size_t n = g.num_ases();
  std::vector<Route> best(n);

  // ----- Phase 1: customer routes (BFS from dest along provider edges). ---
  // custlen[u] = length of u's shortest all-downhill path to dest.
  std::vector<std::uint16_t> custlen(n, kInf);
  custlen[dest.value()] = 0;
  std::deque<std::uint32_t> queue{dest.value()};
  while (!queue.empty()) {
    const AsId u(queue.front());
    queue.pop_front();
    for (const auto& nb : g.neighbors(u)) {
      if (nb.rel != topo::Rel::Provider) continue;  // u's provider learns it
      if (custlen[nb.as.value()] == kInf) {
        custlen[nb.as.value()] =
            static_cast<std::uint16_t>(custlen[u.value()] + 1);
        queue.push_back(nb.as.value());
      }
    }
  }
  // Select the lowest-id customer next hop on a shortest downhill path.
  for (std::size_t i = 0; i < n; ++i) {
    if (custlen[i] == kInf || i == dest.value()) continue;
    const AsId u(static_cast<std::uint32_t>(i));
    AsId pick = AsId::invalid();
    for (const auto& nb : g.neighbors(u)) {
      if (nb.rel != topo::Rel::Customer) continue;
      if (custlen[nb.as.value()] != kInf &&
          custlen[nb.as.value()] + 1 == custlen[i]) {
        if (!pick.valid() || nb.as < pick) pick = nb.as;
      }
    }
    MIFO_ASSERT(pick.valid());
    best[i] = Route{RouteClass::Customer, custlen[i], pick};
  }
  best[dest.value()] = Route{RouteClass::Self, 0, dest};

  // ----- Phase 2: peer routes (one peering hop off the customer cone). ----
  for (std::size_t i = 0; i < n; ++i) {
    if (best[i].valid()) continue;  // customer route (or dest) wins
    const AsId u(static_cast<std::uint32_t>(i));
    Route cand;
    for (const auto& nb : g.neighbors(u)) {
      if (nb.rel != topo::Rel::Peer) continue;
      // The peer exports only its own prefix or a customer route.
      if (custlen[nb.as.value()] == kInf) continue;
      const Route offer{RouteClass::Peer,
                        static_cast<std::uint16_t>(custlen[nb.as.value()] + 1),
                        nb.as};
      if (offer.better_than(cand)) cand = offer;
    }
    if (cand.valid()) best[i] = cand;
  }

  // ----- Phase 3: provider routes (bucketed BFS down the hierarchy). ------
  // Every AS holding any route exports it to its customers; unrouted ASes
  // adopt the shortest such offer (lowest next-hop id on ties). Seeded
  // routes (customer/peer/self) are final and are never displaced: class
  // preference dominates length.
  std::vector<std::vector<std::uint32_t>> buckets;
  auto bucket_push = [&buckets](std::size_t len, std::uint32_t as) {
    if (buckets.size() <= len) buckets.resize(len + 1);
    buckets[len].push_back(as);
  };
  std::vector<std::uint16_t> provlen(n, kInf);
  std::vector<AsId> provhop(n, AsId::invalid());
  for (std::size_t i = 0; i < n; ++i) {
    if (best[i].valid()) bucket_push(best[i].path_len, static_cast<std::uint32_t>(i));
  }
  for (std::size_t len = 0; len < buckets.size(); ++len) {
    for (std::size_t qi = 0; qi < buckets[len].size(); ++qi) {
      const std::uint32_t v = buckets[len][qi];
      // Skip stale queue entries (a shorter offer was finalized earlier).
      const std::uint16_t vlen =
          best[v].valid() ? best[v].path_len : provlen[v];
      if (vlen != len) continue;
      if (!best[v].valid()) {
        best[v] = Route{RouteClass::Provider, provlen[v], provhop[v]};
      }
      for (const auto& nb : g.neighbors(AsId(v))) {
        if (nb.rel != topo::Rel::Customer) continue;  // export downward only
        const std::uint32_t w = nb.as.value();
        if (best[w].valid()) continue;  // has a preferred-class route
        const auto cand_len = static_cast<std::uint16_t>(len + 1);
        if (cand_len < provlen[w] ||
            (cand_len == provlen[w] && AsId(v) < provhop[w])) {
          provlen[w] = cand_len;
          provhop[w] = AsId(v);
          bucket_push(cand_len, w);
        }
      }
    }
  }

  return DestRoutes(dest, std::move(best));
}

}  // namespace mifo::bgp
