// Delta BGP route recomputation under churn (DESIGN.md §5.1b).
//
// `compute_routes` + `RouteStore` rebuild the converged state of one
// destination from scratch in O(E). Under continuous churn that is the wrong
// cost model: a single withdraw touches exactly one destination's tree, and
// a single session flap touches only the destinations that actually held a
// RIB row across the flapped edge. `DeltaRoutingTable` maintains one CSR
// `RouteStore` per tracked destination and, per routing event, re-runs the
// Gao–Rexford decision process only for the destinations whose best-route
// *assignment* the event can change; destinations where only a RIB row
// across the toggled edge (dis)appears get a cheap view-only patch, and
// every other destination keeps its existing segment, pointer-identical.
//
// Publication: each destination's converged state lives in an immutable
// `RouteSegment` held by `std::shared_ptr`. Applying an event builds fresh
// segments and replaces the affected pointers, so a reader that still holds
// a segment keeps a complete pre-event store (and the graph version it was
// computed against) for as long as it holds it.
//
// Threading: none. The table is single-threaded — `apply`, `plant_stale`
// and every reader must run on one thread (the chaos engine's); nothing
// here synchronises.
//
// Per event each destination falls into one of three buckets, decided by
// O(1) tests against the pre-event segment (proofs in DESIGN.md §5.1b):
//
//   RECOMPUTE — the best-route assignment itself changes, so the Gao–
//     Rexford decision process re-runs from scratch.
//       Withdraw(o) / Reannounce(o): exactly {o}; per-destination state is
//         computed independently, so prefix events cannot touch any other
//         destination.
//       SessionDown(a,b): the edge lies in the best tree
//         (`best(a).next_hop == b || best(b).next_hop == a`). Removing a
//         non-tree edge only deletes candidates nobody elected, so the old
//         assignment stays the unique fixed point.
//       SessionUp(a,b): an endpoint would switch — the candidate route the
//         new session offers (`{classify(rel), best(exporter).path_len+1,
//         exporter}`) beats the endpoint's current best under the decision
//         order. The new edge creates candidates only *at* a and b, so if
//         neither endpoint switches no AS anywhere can.
//   PATCH — the assignment is provably unchanged but a RIB row across the
//     toggled edge appears or disappears. Every view is a pure function of
//     (graph, best assignment), so the segment is rebuilt by re-deriving
//     the views from the *reused* assignment on the new graph — no routing
//     computation. Tests: SessionDown(a,b) with a row across the edge in
//     either direction (`rib_from`); SessionUp(a,b) where a row would
//     appear (export rule + old-tree poisoning, `would_offer`) but neither
//     endpoint prefers it.
//   UNCHANGED — neither test fires; the segment is kept pointer-identical.
//     Poisoned or export-filtered offers can never beat an endpoint's best
//     (a poisoned offer is at least two hops longer within its class), so
//     skipping them in the tests above is sound.
//
// Stale-graph safety: an unchanged segment keeps the `AsGraph` version it
// was computed against (held alive via shared_ptr). `RouteStore::rib_from`
// returns nullopt for non-adjacent pairs, so a reader probing the toggled
// edge through a stale segment gets exactly the answer a fresh rebuild
// would give (the row exists in neither — otherwise the destination would
// have been recomputed).
//
// The from-scratch converge-then-rebuild path (`compute_routes`,
// `RouteStore(g, dest)`) is retained untouched as the differential oracle —
// the PR-1/PR-5/PR-9 pattern. `rebuild_full` exposes it per destination and
// `differential_check` compares every published segment against it;
// tests/bgp/test_route_delta_diff.cpp asserts element-identical views after
// every event of seeded churn sequences across 100 topologies.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bgp/route_store.hpp"
#include "bgp/routing.hpp"
#include "topo/as_graph.hpp"

namespace mifo::bgp {

/// One routing-plane event: prefix churn or an eBGP session toggling.
struct RouteEvent {
  enum class Kind : std::uint8_t {
    Withdraw,     ///< origin `a` withdraws its prefix
    Reannounce,   ///< origin `a` re-announces its prefix
    SessionDown,  ///< eBGP session `a`–`b` goes down (link event)
    SessionUp,    ///< eBGP session `a`–`b` comes back
  };

  Kind kind = Kind::Withdraw;
  AsId a = AsId::invalid();  ///< origin, or first session endpoint
  AsId b = AsId::invalid();  ///< second session endpoint (session events)

  [[nodiscard]] static RouteEvent withdraw(AsId origin) {
    return RouteEvent{Kind::Withdraw, origin, AsId::invalid()};
  }
  [[nodiscard]] static RouteEvent reannounce(AsId origin) {
    return RouteEvent{Kind::Reannounce, origin, AsId::invalid()};
  }
  [[nodiscard]] static RouteEvent session_down(AsId x, AsId y) {
    return RouteEvent{Kind::SessionDown, x, y};
  }
  [[nodiscard]] static RouteEvent session_up(AsId x, AsId y) {
    return RouteEvent{Kind::SessionUp, x, y};
  }

  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] const char* to_string(RouteEvent::Kind k);

/// Per-event accounting: how much of the destination universe the delta
/// engine actually re-ran the decision process for (the bench headline is
/// events*destinations / sum(recomputed)). `recomputed + patched +
/// unchanged == destinations` on every applied event.
struct DeltaStats {
  bool applied = false;          ///< false: no-op (unknown origin, dup, …)
  std::size_t destinations = 0;  ///< tracked universe size
  std::size_t recomputed = 0;    ///< full Gao–Rexford decision re-runs
  std::size_t patched = 0;       ///< view-only republishes (assignment reused)
  std::size_t unchanged = 0;     ///< segments kept pointer-identical
  std::uint64_t epoch = 0;       ///< table epoch after the event
};

/// Immutable published unit: one destination's converged CSR store plus the
/// graph version it was computed against (kept alive for stale readers) and
/// the table epoch that produced it.
struct RouteSegment {
  std::shared_ptr<const topo::AsGraph> graph;
  RouteStore store;
  std::uint64_t epoch = 0;
};

/// Element-wise equality of every reader-visible view of two stores: best
/// routes, RIB rows, AS paths and reachability. The Euler-tour poisoning
/// intervals are a pure function of the best tree (compared via paths), and
/// RIB rows already encode the poisoning decisions.
[[nodiscard]] bool stores_identical(const RouteStore& a, const RouteStore& b);

/// Delta-maintained converged routing state for a fixed set of destination
/// ASes over a base topology with live prefix/session churn.
class DeltaRoutingTable {
 public:
  /// `base` must outlive the table. `dests` are the tracked destination
  /// ASes (duplicates ignored); every destination's initial segment is the
  /// from-scratch converged state on a private copy of `base`.
  DeltaRoutingTable(const topo::AsGraph& base, std::vector<AsId> dests);

  /// Applies one routing event: computes the affected destinations against
  /// the pre-event segments, recomputes only those, and publishes the new
  /// segments. Idempotent on duplicates (withdraw of a withdrawn origin,
  /// down of a downed session) — those return applied = false.
  DeltaStats apply(const RouteEvent& ev);

  /// The currently published segment for `dest` (nullptr when `dest` is
  /// not tracked). The shared_ptr keeps the segment and its graph version
  /// alive for as long as the caller holds it, across later apply() calls.
  [[nodiscard]] std::shared_ptr<const RouteSegment> segment(AsId dest) const;

  [[nodiscard]] std::span<const AsId> destinations() const { return dests_; }
  [[nodiscard]] bool tracks(AsId dest) const;
  [[nodiscard]] bool withdrawn(AsId origin) const;
  [[nodiscard]] bool session_disabled(AsId x, AsId y) const;
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// Current masked graph version (base minus downed sessions).
  [[nodiscard]] const std::shared_ptr<const topo::AsGraph>& graph() const {
    return current_;
  }

  /// The retained from-scratch oracle: converge-and-rebuild `dest` on the
  /// current masked graph (an all-invalid store when withdrawn). The result
  /// references `graph()` — use before the next session event.
  [[nodiscard]] RouteStore rebuild_full(AsId dest) const;

  /// Compares every published segment against `rebuild_full` and returns
  /// the mismatching destinations (empty on a correct implementation). The
  /// chaos engine's differential verify mode runs this at every snapshot.
  [[nodiscard]] std::vector<AsId> differential_check() const;

  /// TEST ONLY — the planted-staleness negative control: the next apply()
  /// that would recompute `dest` skips the recompute and leaves the stale
  /// segment published (stats still claim the work happened, as a buggy
  /// delta engine's would). differential_check must catch it.
  void plant_stale(AsId dest) { stale_next_ = dest; }

 private:
  [[nodiscard]] std::size_t index_of(AsId dest) const;
  [[nodiscard]] std::shared_ptr<const topo::AsGraph> build_masked() const;
  /// Consumes the planted-staleness control for dests_[idx]: true when the
  /// pending republish/patch must be skipped (leaving the stale segment).
  [[nodiscard]] bool consume_stale(std::size_t idx);
  /// Builds and publishes the current converged segment for dests_[idx]
  /// (honors the planted-staleness control).
  void republish(std::size_t idx);
  /// View-only republish: rebuilds dests_[idx]'s segment on the current
  /// graph from the best assignment of the published segment — the PATCH
  /// bucket, no decision-process run (honors the staleness control too, so
  /// a buggy "forgot to patch" engine is equally catchable).
  void patch(std::size_t idx);
  /// Would `importer` hold a RIB row from `exporter` were the session up,
  /// judged under `seg`'s (pre-event) tree? Relationship from the base
  /// graph — stale segment graphs may predate the session.
  [[nodiscard]] bool would_offer(const RouteSegment& seg, AsId importer,
                                 AsId exporter) const;
  /// Would `importer` *switch its best route* onto a fresh session from
  /// `exporter`? True iff the session would offer a row and that candidate
  /// beats `importer`'s current best under the decision order.
  [[nodiscard]] bool would_prefer(const RouteSegment& seg, AsId importer,
                                  AsId exporter) const;

  const topo::AsGraph* base_;
  std::shared_ptr<const topo::AsGraph> current_;
  std::vector<AsId> dests_;
  std::vector<std::int32_t> dest_index_;  ///< AS id -> dests_ index or -1
  std::vector<std::shared_ptr<const RouteSegment>> segments_;
  std::vector<AsId> withdrawn_;
  std::vector<std::pair<AsId, AsId>> disabled_;  ///< normalized (min,max)
  std::uint64_t epoch_ = 0;
  AsId stale_next_ = AsId::invalid();
};

}  // namespace mifo::bgp
