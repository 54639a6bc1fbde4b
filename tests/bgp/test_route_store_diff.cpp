// Differential-oracle harness for the CSR route store (DESIGN.md §5.1).
//
// `DestRoutes` and its derived views (`rib_of`, `rib_route_from`, `as_path`,
// `reachable_count`, kept in tests/oracle/route_reference.hpp) are the
// semantic reference; `RouteStore` must be element-identical to them for
// every (as, neighbor, dest) on seeded random topologies. On top of the
// view-level checks, the two consumers whose migration changed iteration
// shape — the MIFO walk (neighbor scan -> pre-sorted RIB rows) and MIRO's
// alternative election (collect+sort -> filtered row prefix) — are re-run
// against in-test re-implementations of their legacy DestRoutes-based code
// paths.
//
// 100 seeded topologies (see the suite instantiation at the bottom), sizes
// cycling 20..120 ASes; small topologies sweep every destination.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bgp/route_store.hpp"
#include "bgp/routing.hpp"
#include "common/rng.hpp"
#include "core/walk.hpp"
#include "miro/miro.hpp"
#include "oracle/route_reference.hpp"
#include "topo/generator.hpp"
#include "topo/relationship.hpp"

namespace mifo {
namespace {

using bgp::DestRoutes;
using bgp::Route;
using bgp::RouteStore;

// ---------------------------------------------------------------------------
// Legacy re-implementations (the pre-CSR code paths, DestRoutes-based).
// ---------------------------------------------------------------------------

double spare_of(const core::UtilizationFn& utilization, LinkId l) {
  const double u = utilization(l);
  return u >= 1.0 ? 0.0 : 1.0 - u;
}

double legacy_probe_spare(const topo::AsGraph& g, const DestRoutes& routes,
                          AsId cur, AsId via,
                          const core::UtilizationFn& utilization) {
  double spare = spare_of(utilization, g.link(cur, via));
  AsId hop = via;
  std::size_t guard = 0;
  while (hop != routes.dest()) {
    const Route& r = routes.best(hop);
    if (!r.valid()) return 0.0;
    spare = std::min(spare, spare_of(utilization, g.link(hop, r.next_hop)));
    hop = r.next_hop;
    if (++guard > routes.num_ases()) return 0.0;
  }
  return spare;
}

/// The walk exactly as it shipped before the CSR store: alternatives come
/// from a g.neighbors() scan with per-neighbor `rib_route_from` calls.
core::WalkResult legacy_mifo_walk(const topo::AsGraph& g,
                                  const DestRoutes& routes,
                                  const std::vector<bool>& deployed, AsId src,
                                  const core::UtilizationFn& utilization,
                                  const core::WalkConfig& cfg = {}) {
  core::WalkResult res;
  if (!routes.best(src).valid()) return res;

  const AsId dst = routes.dest();
  AsId cur = src;
  bool tag = true;
  res.path.push_back(cur);

  while (cur != dst) {
    const Route& def = routes.best(cur);
    AsId next = def.next_hop;
    const LinkId def_link = g.link(cur, next);

    if (deployed[cur.value()] &&
        utilization(def_link) >= cfg.congest_threshold) {
      const bool probe = cfg.selection == core::AltSelection::EndToEndProbe;
      AsId best = AsId::invalid();
      double best_spare =
          (probe ? legacy_probe_spare(g, routes, cur, next, utilization)
                 : spare_of(utilization, def_link)) +
          cfg.min_spare_margin;
      for (const auto& nb : g.neighbors(cur)) {
        if (nb.as == next) continue;
        if (!topo::check_bit(tag, nb.rel)) continue;
        const auto offer = bgp::rib_route_from(g, routes, cur, nb.as);
        if (!offer) continue;
        if (offer->path_len > def.path_len + cfg.max_extra_hops) continue;
        const double spare =
            probe ? legacy_probe_spare(g, routes, cur, nb.as, utilization)
                  : spare_of(utilization, nb.link);
        if (spare > best_spare ||
            (best.valid() && spare == best_spare && nb.as < best)) {
          best = nb.as;
          best_spare = spare;
        }
      }
      if (best.valid()) {
        next = best;
        ++res.deflections;
      }
    }

    const LinkId hop_link = g.link(cur, next);
    res.links.push_back(hop_link);
    tag = (*g.rel(cur, next) == topo::Rel::Provider);
    cur = next;
    res.path.push_back(cur);
    if (res.path.size() > 2 * g.num_ases() + 2) {
      ADD_FAILURE() << "legacy walk looped";
      return res;
    }
  }

  res.reachable = true;
  return res;
}

/// MIRO alternative election as it shipped before the CSR store:
/// collect every same-class RIB offer, then sort, then truncate.
std::vector<Route> legacy_miro_alternatives(const topo::AsGraph& g,
                                            const DestRoutes& routes,
                                            AsId src,
                                            const std::vector<bool>& deployed,
                                            const miro::MiroConfig& cfg = {}) {
  std::vector<Route> alts;
  if (!deployed[src.value()]) return alts;
  const Route& def = routes.best(src);
  if (!def.valid() || def.cls == bgp::RouteClass::Self) return alts;
  for (const auto& nb : g.neighbors(src)) {
    if (nb.as == def.next_hop) continue;
    if (!deployed[nb.as.value()]) continue;
    const auto offer = bgp::rib_route_from(g, routes, src, nb.as);
    if (!offer) continue;
    if (offer->cls != def.cls) continue;
    alts.push_back(*offer);
  }
  std::sort(alts.begin(), alts.end(),
            [](const Route& a, const Route& b) { return a.better_than(b); });
  if (alts.size() > cfg.max_alternatives) alts.resize(cfg.max_alternatives);
  return alts;
}

// ---------------------------------------------------------------------------
// The seeded sweep. Each seed is one topology; sizes cycle with the seed so
// the 100-seed suite covers 20..120 ASes.
// ---------------------------------------------------------------------------

class RouteStoreDiff : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static topo::AsGraph make(std::uint64_t seed) {
    topo::GeneratorParams p;
    p.num_ases = 20 + (seed % 5) * 25;  // 20, 45, 70, 95, 120
    p.seed = seed;
    return topo::generate_topology(p);
  }

  /// Destinations to sweep: every AS on small topologies, a stride plus the
  /// seed-dependent remainder on larger ones.
  static std::vector<AsId> dests(const topo::AsGraph& g, std::uint64_t seed) {
    std::vector<AsId> d;
    const std::uint32_t n = static_cast<std::uint32_t>(g.num_ases());
    const std::uint32_t stride = n <= 45 ? 1 : 7;
    for (std::uint32_t i = static_cast<std::uint32_t>(seed % stride); i < n;
         i += stride) {
      d.emplace_back(i);
    }
    return d;
  }
};

TEST_P(RouteStoreDiff, ViewsMatchOracleForEveryAsNeighborDest) {
  const std::uint64_t seed = GetParam();
  const topo::AsGraph g = make(seed);

  for (const AsId dest : dests(g, seed)) {
    const DestRoutes oracle = bgp::compute_routes(g, dest);
    const RouteStore store(g, oracle);

    ASSERT_EQ(store.dest(), dest);
    ASSERT_EQ(store.num_ases(), oracle.num_ases());
    ASSERT_EQ(store.num_reachable(), bgp::reachable_count(oracle));

    for (std::uint32_t i = 0; i < g.num_ases(); ++i) {
      const AsId as(i);
      // Best routes, element-identical.
      ASSERT_EQ(store.best(as), oracle.best(as)) << "as " << i;

      // Reconstructed AS path.
      const auto want_path = bgp::as_path(g, oracle, as);
      const auto got_path = store.path(as);
      ASSERT_EQ(std::vector<AsId>(got_path.begin(), got_path.end()),
                want_path)
          << "as " << i;

      // Full RIB row, order included (both are decision-process sorted).
      const auto want_rib = bgp::rib_of(g, oracle, as);
      const auto got_rib = store.rib(as);
      ASSERT_EQ(std::vector<Route>(got_rib.begin(), got_rib.end()), want_rib)
          << "as " << i;

      // Per-neighbor lookups: export rule + loop poisoning, O(1) vs the
      // oracle's best-chain walk.
      for (const auto& nb : g.neighbors(as)) {
        const auto want = bgp::rib_route_from(g, oracle, as, nb.as);
        const auto got = store.rib_from(as, nb.as);
        ASSERT_EQ(got.has_value(), want.has_value())
            << "as " << i << " nb " << nb.as.value();
        if (want) {
          ASSERT_EQ(*got, *want);
        }
      }
    }
  }
}

TEST_P(RouteStoreDiff, AncestorCheckMatchesBestChainMembership) {
  // on_best_path (the Euler-tour interval test) against explicit best-chain
  // membership, all (as, of) pairs on the small topologies.
  const std::uint64_t seed = GetParam();
  const topo::AsGraph g = make(seed);
  if (g.num_ases() > 45) GTEST_SKIP() << "all-pairs check on small sizes";

  for (const AsId dest : dests(g, seed)) {
    const DestRoutes oracle = bgp::compute_routes(g, dest);
    const RouteStore store(g, oracle);
    for (std::uint32_t of = 0; of < g.num_ases(); ++of) {
      std::unordered_set<std::uint32_t> chain;
      for (const AsId hop : bgp::as_path(g, oracle, AsId(of))) {
        chain.insert(hop.value());
      }
      for (std::uint32_t as = 0; as < g.num_ases(); ++as) {
        ASSERT_EQ(store.on_best_path(AsId(as), AsId(of)), chain.contains(as))
            << "dest " << dest.value() << " as " << as << " of " << of;
      }
    }
  }
}

TEST_P(RouteStoreDiff, StoreFromGraphEqualsStoreFromOracle) {
  // The convenience constructor must produce the same flattened state as
  // flattening an externally computed DestRoutes.
  const std::uint64_t seed = GetParam();
  const topo::AsGraph g = make(seed);
  const AsId dest(static_cast<std::uint32_t>(seed % g.num_ases()));
  const RouteStore direct(g, dest);
  const RouteStore via_oracle(g, bgp::compute_routes(g, dest));
  ASSERT_EQ(direct.num_reachable(), via_oracle.num_reachable());
  ASSERT_EQ(direct.bytes(), via_oracle.bytes());
  for (std::uint32_t i = 0; i < g.num_ases(); ++i) {
    const AsId as(i);
    ASSERT_EQ(direct.best(as), via_oracle.best(as));
    const auto pa = direct.path(as);
    const auto pb = via_oracle.path(as);
    ASSERT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()));
    const auto ra = direct.rib(as);
    const auto rb = via_oracle.rib(as);
    ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()));
  }
}

TEST_P(RouteStoreDiff, WalkMatchesLegacyNeighborScan) {
  // The CSR walk iterates pre-sorted RIB rows; the legacy walk scanned
  // g.neighbors() and recomputed offers. Same path, hop for hop, under
  // random congestion/deployment — for both selection policies.
  const std::uint64_t seed = GetParam();
  const topo::AsGraph g = make(seed);
  Rng rng(seed * 7919 + 1);

  for (int trial = 0; trial < 3; ++trial) {
    const AsId dest(static_cast<std::uint32_t>(rng.bounded(g.num_ases())));
    const DestRoutes oracle = bgp::compute_routes(g, dest);
    const RouteStore store(g, oracle);

    const double ratio = trial == 0 ? 1.0 : rng.uniform();
    std::vector<bool> deployed(g.num_ases());
    for (std::size_t i = 0; i < deployed.size(); ++i) {
      deployed[i] = rng.bernoulli(ratio);
    }
    std::unordered_map<std::uint32_t, double> util_map;
    Rng util_rng = rng.split();
    auto util = [&](LinkId l) -> double {
      auto [it, inserted] = util_map.try_emplace(l.value(), 0.0);
      if (inserted) {
        it->second = util_rng.bernoulli(0.5) ? 0.9 + 0.1 * util_rng.uniform()
                                             : 0.5 * util_rng.uniform();
      }
      return it->second;
    };

    core::WalkConfig cfg;
    cfg.selection = trial == 2 ? core::AltSelection::EndToEndProbe
                               : core::AltSelection::LocalGreedy;
    for (std::uint32_t s = 0; s < g.num_ases(); s += 2) {
      if (AsId(s) == dest) continue;
      const auto got = core::mifo_walk(g, store, deployed, AsId(s), util, cfg);
      const auto want =
          legacy_mifo_walk(g, oracle, deployed, AsId(s), util, cfg);
      ASSERT_EQ(got.reachable, want.reachable) << "src " << s;
      ASSERT_EQ(got.path, want.path) << "src " << s;
      ASSERT_EQ(got.links, want.links) << "src " << s;
      ASSERT_EQ(got.deflections, want.deflections) << "src " << s;

      // bgp_walk must reproduce the oracle's as_path verbatim.
      const auto bgp_got = core::bgp_walk(g, store, AsId(s));
      ASSERT_EQ(bgp_got.path, bgp::as_path(g, oracle, AsId(s)));
    }
  }
}

TEST_P(RouteStoreDiff, MiroElectionMatchesLegacyCollectAndSort) {
  const std::uint64_t seed = GetParam();
  const topo::AsGraph g = make(seed);
  Rng rng(seed * 104729 + 3);

  for (int trial = 0; trial < 2; ++trial) {
    const AsId dest(static_cast<std::uint32_t>(rng.bounded(g.num_ases())));
    const DestRoutes oracle = bgp::compute_routes(g, dest);
    const RouteStore store(g, oracle);
    const double ratio = trial == 0 ? 1.0 : 0.5;
    std::vector<bool> deployed(g.num_ases());
    for (std::size_t i = 0; i < deployed.size(); ++i) {
      deployed[i] = rng.bernoulli(ratio);
    }
    miro::MiroConfig cfg;
    cfg.max_alternatives = 1 + trial;
    for (std::uint32_t s = 0; s < g.num_ases(); ++s) {
      const auto got = miro::alternatives(g, store, AsId(s), deployed, cfg);
      const auto want =
          legacy_miro_alternatives(g, oracle, AsId(s), deployed, cfg);
      ASSERT_EQ(got, want) << "src " << s;
      ASSERT_EQ(miro::path_count(g, store, AsId(s), deployed, cfg),
                oracle.best(AsId(s)).valid()
                    ? (oracle.best(AsId(s)).cls == bgp::RouteClass::Self
                           ? 1
                           : 1 + want.size())
                    : 0);
      for (const Route& alt : got) {
        std::vector<AsId> legacy_path{AsId(s)};
        const auto tail = bgp::as_path(g, oracle, alt.next_hop);
        legacy_path.insert(legacy_path.end(), tail.begin(), tail.end());
        ASSERT_EQ(miro::alt_path(g, store, AsId(s), alt.next_hop),
                  legacy_path);
      }
    }
  }
}

// 100 seeded topologies, sizes cycling 20..120 ASes via (seed % 5).
INSTANTIATE_TEST_SUITE_P(Seeds, RouteStoreDiff,
                         ::testing::Range<std::uint64_t>(1, 101));

}  // namespace
}  // namespace mifo
