#include "topo/generator.hpp"

#include <algorithm>
#include <array>
#include <numeric>

#include "common/contracts.hpp"

namespace mifo::topo {

namespace {

/// Fraction of non-tier-1 ASes that provide transit (tier 2).
constexpr double kTransitFraction = 0.15;
/// Fraction of ASes that are high-peering content providers (stub ASes with
/// many peering links, modeling Google/Facebook, Section IV-B).
constexpr double kContentProviderFraction = 0.005;
/// Peering links per content provider (scaled by available transit ASes).
constexpr std::size_t kContentProviderPeers = 30;
/// Target fraction of adjacencies that are peering (Table I: 0.314).
constexpr double kPeeringFraction = 0.314;
/// Multihoming distribution: the probability of k providers is
/// kMultihomingWeights[k-1].
constexpr std::array<double, 4> kMultihomingWeights{0.45, 0.35, 0.15, 0.05};

/// Weighted pick of a provider among `candidates` with weight
/// (degree + 1) — classic preferential attachment, yielding the heavy-tailed
/// degree distribution of the measured AS graph.
AsId pick_preferential(const AsGraph& g, std::span<const AsId> candidates,
                       Rng& rng) {
  MIFO_EXPECTS(!candidates.empty());
  double total = 0.0;
  for (AsId c : candidates) total += static_cast<double>(g.degree(c)) + 1.0;
  double x = rng.uniform() * total;
  for (AsId c : candidates) {
    x -= static_cast<double>(g.degree(c)) + 1.0;
    if (x <= 0.0) return c;
  }
  return candidates.back();
}

std::size_t sample_provider_count(Rng& rng) {
  const auto& weights = kMultihomingWeights;
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  double x = rng.uniform() * total;
  for (std::size_t k = 0; k < weights.size(); ++k) {
    x -= weights[k];
    if (x <= 0.0) return k + 1;
  }
  return weights.size();
}

}  // namespace

AsGraph generate_topology(const GeneratorParams& params) {
  MIFO_EXPECTS(params.num_ases >= 3);
  MIFO_EXPECTS(params.num_tier1 >= 1);
  MIFO_EXPECTS(params.num_tier1 <= params.num_ases);

  Rng rng(params.seed);
  AsGraph g(params.num_ases);

  const std::size_t n = params.num_ases;
  const std::size_t t1 = std::min(params.num_tier1, n);
  const auto num_transit = static_cast<std::size_t>(
      static_cast<double>(n - t1) * kTransitFraction);
  const std::size_t transit_end = t1 + num_transit;

  // --- Tier 1: full peering mesh. -----------------------------------------
  for (std::size_t i = 0; i < t1; ++i) {
    g.info(AsId(static_cast<std::uint32_t>(i))).tier = 1;
    for (std::size_t j = i + 1; j < t1; ++j) {
      g.add_peering(AsId(static_cast<std::uint32_t>(i)),
                    AsId(static_cast<std::uint32_t>(j)));
    }
  }

  // --- Tier 2 (transit): providers drawn preferentially from earlier
  // transit/tier-1 ASes. The "earlier only" rule keeps the P/C DAG acyclic.
  std::vector<AsId> transit_pool;
  transit_pool.reserve(transit_end);
  for (std::size_t i = 0; i < t1; ++i) {
    transit_pool.push_back(AsId(static_cast<std::uint32_t>(i)));
  }
  for (std::size_t i = t1; i < transit_end; ++i) {
    const AsId as(static_cast<std::uint32_t>(i));
    g.info(as).tier = 2;
    const std::size_t want = sample_provider_count(rng);
    for (std::size_t k = 0; k < want; ++k) {
      const AsId provider = pick_preferential(g, transit_pool, rng);
      if (provider != as) g.add_provider_customer(provider, as);
    }
    transit_pool.push_back(as);
  }

  // --- Tier 3 (stubs): multihomed to transit ASes. -------------------------
  for (std::size_t i = transit_end; i < n; ++i) {
    const AsId as(static_cast<std::uint32_t>(i));
    g.info(as).tier = 3;
    const std::size_t want = sample_provider_count(rng);
    for (std::size_t k = 0; k < want; ++k) {
      const AsId provider = pick_preferential(g, transit_pool, rng);
      g.add_provider_customer(provider, as);
    }
  }

  // --- Content providers: stubs with abundant peering. --------------------
  const auto num_cp = std::max<std::size_t>(
      n >= 1000 ? 1 : 0, static_cast<std::size_t>(
                             static_cast<double>(n) *
                             kContentProviderFraction));
  for (std::size_t c = 0; c < num_cp && transit_end < n; ++c) {
    const AsId as(static_cast<std::uint32_t>(
        transit_end + rng.bounded(n - transit_end)));
    if (g.info(as).content_provider) continue;
    g.info(as).content_provider = true;
    const std::size_t want =
        std::min(kContentProviderPeers, transit_pool.size());
    for (std::size_t k = 0; k < want; ++k) {
      const AsId peer = pick_preferential(g, transit_pool, rng);
      if (peer != as) g.add_peering(as, peer);
    }
  }

  // --- Fill remaining peering links up to the target mix. -----------------
  // Peers are drawn within the transit tiers (where real peering
  // concentrates), preferentially by degree.
  const double target = kPeeringFraction;
  std::size_t attempts = 0;
  const std::size_t max_attempts = 40 * n;
  while (attempts++ < max_attempts) {
    const auto total = static_cast<double>(g.num_adjacencies());
    const auto peering = static_cast<double>(g.num_peer_adjacencies());
    if (total > 0.0 && peering / total >= target) break;
    const AsId a = pick_preferential(g, transit_pool, rng);
    const AsId b = pick_preferential(g, transit_pool, rng);
    if (a == b) continue;
    // Only peer ASes of comparable standing: both transit, neither the
    // other's (transitive) neighbor already.
    g.add_peering(a, b);
  }

  return g;
}

}  // namespace mifo::topo
