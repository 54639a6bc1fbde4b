// Compressed-sparse-row route storage for one destination.
//
// `RouteStore` flattens the converged state `compute_routes` returns into
// CSR arrays built in one pass — per-AS best routes, every per-neighbor RIB
// row (values + column indices + row offsets, rows pre-sorted best-first),
// and every reconstructed AS path — so consumers get `std::span` views into
// one contiguous block, and the BGP loop-poisoning test behind a RIB row is
// an O(1) Euler-tour ancestor check instead of a best-chain walk. It is the
// only route view the library and the tools read.
//
// The per-call reference views over `DestRoutes` (`rib_of`,
// `rib_route_from`, `as_path`, `reachable_count`) live in
// tests/oracle/route_reference.hpp as the differential-test oracle
// (tests/bgp/test_route_store_diff.cpp asserts element-identical views),
// beside the reference solver for `sim::max_min_rates`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bgp/route.hpp"
#include "bgp/routing.hpp"
#include "topo/as_graph.hpp"

namespace mifo::bgp {

/// Flat, immutable snapshot of the converged routing state towards one
/// destination: best routes, full RIB views, and AS paths in CSR form.
class RouteStore {
 public:
  /// Computes `compute_routes(g, dest)` and flattens it.
  RouteStore(const topo::AsGraph& g, AsId dest);

  /// Flattens an already-computed `DestRoutes` (the oracle input form). An
  /// all-invalid `DestRoutes` represents a withdrawn prefix (bgp/delta.hpp):
  /// the store builds with every view empty and num_reachable() == 0.
  RouteStore(const topo::AsGraph& g, const DestRoutes& routes);

  [[nodiscard]] AsId dest() const { return dest_; }
  [[nodiscard]] std::size_t num_ases() const { return best_.size(); }

  /// The AS's best (default) route; `cls == Self` at the destination itself
  /// and `None` where the destination is unreachable.
  [[nodiscard]] const Route& best(AsId as) const;

  /// Every AS's best route, indexed by AS id.
  [[nodiscard]] std::span<const Route> all_best() const { return best_; }

  /// All RIB entries of `as`, one per exporting neighbor, sorted best-first
  /// by the decision process — element-identical to the oracle's `rib_of`.
  /// The entry's `next_hop` is the CSR column index (the exporting
  /// neighbor).
  [[nodiscard]] std::span<const Route> rib(AsId as) const;

  /// The route `as` holds from `neighbor` (export rule + loop poisoning) —
  /// identical to `rib_route_from`, but O(1). nullopt when the two are not
  /// adjacent on the graph this store was built against (delta segments may
  /// outlive a session toggle; see bgp/delta.hpp).
  [[nodiscard]] std::optional<Route> rib_from(AsId as, AsId neighbor) const;

  /// The default forwarding path from `src` to the destination, including
  /// both endpoints — identical to `as_path`; empty when unreachable.
  [[nodiscard]] std::span<const AsId> path(AsId src) const;

  /// True when `as` lies on `of`'s best path to the destination (ancestor-
  /// or-self in the best-route tree). False when either is unreachable.
  [[nodiscard]] bool on_best_path(AsId as, AsId of) const;

  /// Number of ASes that can reach the destination (== `reachable_count`).
  [[nodiscard]] std::size_t num_reachable() const { return reachable_; }

  /// Resident footprint of the flattened arrays, in bytes.
  [[nodiscard]] std::size_t bytes() const;

 private:
  void build(const DestRoutes& routes);

  const topo::AsGraph* g_;
  AsId dest_;
  std::vector<Route> best_;
  // RIB CSR: row `as` spans rib_[rib_off_[as] .. rib_off_[as+1]).
  std::vector<std::uint32_t> rib_off_;
  std::vector<Route> rib_;
  // Path CSR: path of `as` spans path_nodes_[path_off_[as] .. path_off_[as+1]).
  std::vector<std::uint32_t> path_off_;
  std::vector<AsId> path_nodes_;
  // Euler-tour intervals over the best-route tree rooted at dest: `a` is an
  // ancestor-or-self of `b` iff tin_[a] <= tin_[b] && tout_[b] <= tout_[a].
  std::vector<std::uint32_t> tin_;
  std::vector<std::uint32_t> tout_;
  std::size_t reachable_ = 0;
};

}  // namespace mifo::bgp
