// Max–min fair rate allocation by progressive filling (water-filling).
//
// The fluid simulator's stand-in for per-packet TCP dynamics: on an AS-level
// topology with long-lived greedy flows, TCP throughput converges to an
// approximately max–min fair share of the bottleneck links, which is what
// the paper's NS-3 runs measure at the flow level.
//
// The solver runs every re-evaluation tick of every FluidSim, so its hot
// path is allocation-free: link ids are dense (AsGraph::num_directed_links
// is the universe), and all per-link state lives in epoch-stamped arrays
// inside a caller-owned MaxMinWorkspace that is reused across calls. Only
// links actually referenced by a flow are ever (re-)initialised.
//
// Table. A round raises every unfrozen flow by the smallest increment that
// binds a link or the flow cap, charges it and freezes the flows of the
// links it saturates. The live constraints sit in one compact table of
// {remaining capacity, unfrozen-flow count, id} rows, so a round is two
// passes: pass 1 charges and records the saturated rows; after their flows
// freeze, pass 2 refreshes counts, drops rows without unfrozen flows
// (stably) and computes the next increment. The at-cap round charges none.
//
// Classes. A link crossed by one flow keeps count 1 until that flow
// freezes, and rem - delta * 1 and rem / 1 are exact, so single-flow links
// of equal capacity share one remaining-capacity sequence and one row (per
// distinct capacity, found by hashing its bits). The row lives while any
// member's flow is unfrozen; its saturation freezes every live member.
//
// Exactness. Each link's arithmetic is the per-link solver's, the minimum
// of the quotients is order-free, and so are the flows a round freezes.
// When nothing saturates, the numerical backstop freezes the first-seen
// link with the least remaining capacity, a class competing (and freezing)
// as its first live member. Rates are bit-for-bit those of the per-link
// reference solver (tests/oracle/maxmin_reference.hpp).
//
// Cost: O(total path length) setup, O(live rows) per round, and
// O(path length) per frozen flow.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace mifo::sim {

struct MaxMinInput {
  /// One entry per flow: the directed link ids its path crosses (borrowed,
  /// not copied — typically views straight into the simulator's per-flow
  /// link vectors). Flows with empty paths receive `flow_cap`.
  std::span<const std::span<const std::uint32_t>> flow_links;
  /// Capacity of link id l (only ids referenced by flows are read).
  std::span<const double> link_capacity;
  /// Per-flow rate ceiling (access-link speed); <=0 disables the ceiling.
  double flow_cap = 0.0;
  /// Size of the link-id universe (ids are < num_links). 0 defaults to
  /// link_capacity.size().
  std::size_t num_links = 0;
};

/// Reusable scratch state for max_min_rates. Construct once (e.g. per
/// FluidSim) and pass to every call; all vectors grow to a high-water mark
/// and are never shrunk, so steady-state calls perform no allocation.
struct MaxMinWorkspace {
  /// A live table row: remaining capacity, the count it charges and divides
  /// by (1 for a class), and its id (local link id, or class id | kClassBit).
  struct Row {
    double rem = 0.0;
    std::uint32_t count = 0;
    std::uint32_t id = 0;
  };

  std::vector<double> rates;  ///< per-flow output of the last call

  // Per-flow scratch.
  std::vector<std::uint8_t> frozen;

  // Dense id -> compact-index mapping over the link universe, replacing the
  // per-call hash map. `link_epoch[l] == epoch` marks local_id[l] as valid
  // for the current call; stale entries are ignored, so per-call setup is
  // O(links touched), not O(universe).
  std::vector<std::uint32_t> local_id;
  std::vector<std::uint32_t> link_epoch;

  // Per used link, indexed by local id in first-seen order.
  std::vector<double> capacity;
  std::vector<std::uint32_t> count;        ///< unfrozen flows crossing l
  /// Last flow (+1) that crossed the link: de-duplicates a path, and names
  /// the one flow of a single-flow link.
  std::vector<std::uint32_t> last_flow;
  std::vector<std::uint32_t> flows_begin;  ///< CSR offsets into flow_of
  std::vector<std::uint32_t> flows_cursor;
  std::vector<std::uint32_t> flow_of;      ///< CSR payload: flows per link
  std::vector<std::uint32_t> next_member;  ///< next link of l's class
  std::vector<std::uint32_t> path_begin;   ///< CSR offsets, size nf+1
  std::vector<std::uint32_t> path_links;   ///< deduplicated per-flow links

  // Per class of single-flow links of equal capacity.
  std::vector<std::uint32_t> class_first;  ///< first live member
  std::vector<std::uint32_t> class_last;   ///< last member
  // Capacity bits -> class id, open addressing (rebuilt per call).
  std::vector<std::uint64_t> class_key;
  std::vector<std::uint32_t> class_slot;

  /// Live rows, stably compacted every round.
  std::vector<Row> table;
  std::vector<std::uint32_t> saturated;  ///< row ids, this round

  std::uint32_t epoch = 0;
};

/// Max–min fair rates, one per flow, written into (and viewing) `ws.rates`.
/// Exact progressive filling: every flow's rate rises uniformly until its
/// first bottleneck freezes it.
/// O(#bottleneck-rounds * #rows + total path length); allocation-free
/// once `ws` has warmed up to the instance size.
[[nodiscard]] std::span<const double> max_min_rates(const MaxMinInput& in,
                                                    MaxMinWorkspace& ws);

/// Convenience overload with a throwaway workspace.
[[nodiscard]] std::vector<double> max_min_rates(const MaxMinInput& in);

/// Incremental max–min solver over a dynamic flow population (the open-loop
/// streaming workload's arrival/departure event interface).
///
/// Max–min allocations decompose exactly over connected components of the
/// flow↔link sharing graph, where only *constrained* links couple flows: a
/// link crossed by n capped flows can never bind while n * flow_cap <=
/// capacity, so it imposes no constraint and is pruned from the instance
/// without changing any rate. Each arrival / departure / path change /
/// capacity change therefore re-solves only the bottleneck-connected
/// component(s) it touches. Under internet-shaped load (access-capped flows
/// over fat links) components stay tiny, so per-event work sits orders of
/// magnitude below the from-scratch solve FluidSim::recompute_rates runs.
///
/// Exactness: every component is solved by one *canonical* max_min_rates
/// call — members ordered by their monotonic admission sequence, paths
/// filtered to constrained links — and the retained from-scratch oracle
/// (oracle_rates) performs the same canonical decomposition over the whole
/// population, so incremental and oracle rates are bitwise identical
/// (asserted per event by check_differential and
/// tests/sim/test_maxmin_incremental.cpp).
class IncrementalMaxMin {
 public:
  /// Dense handle for a live flow; reused after removal (the admission
  /// sequence number, not the slot, is the canonical identity).
  using Slot = std::uint32_t;
  static constexpr Slot kInvalidSlot = 0xffffffffu;

  /// One rate movement from the last mutating call. A slot may appear more
  /// than once (update_path solves the departure and arrival halves
  /// separately); apply deltas in order.
  struct RateChange {
    Slot slot = 0;
    double old_rate = 0.0;
    double new_rate = 0.0;
  };

  struct Stats {
    std::uint64_t events = 0;               ///< mutating calls processed
    std::uint64_t components_solved = 0;
    std::uint64_t flows_resolved = 0;       ///< sum of solved component sizes
    std::uint64_t incidences_resolved = 0;  ///< incremental solve work
    /// What from-scratch re-solves would have cost: active flows + total
    /// path incidences at each event (FluidSim::recompute_rates's scan).
    std::uint64_t full_incidences = 0;
    std::uint64_t peak_component = 0;       ///< largest component solved
    std::uint64_t differential_checks = 0;
    std::uint64_t differential_mismatches = 0;

    /// Per-event solve-work reduction vs from-scratch (the headline figure).
    [[nodiscard]] double reduction() const {
      return static_cast<double>(full_incidences) /
             static_cast<double>(incidences_resolved != 0 ? incidences_resolved
                                                          : 1);
    }
  };

  /// Takes the directed-link capacity universe and the per-flow cap
  /// (<=0 disables the cap — every touched link is then constrained).
  IncrementalMaxMin(std::vector<double> link_capacity, double flow_cap);

  /// Admit a flow crossing `links` (deduplicated, order preserved); returns
  /// its slot. Rates of its bottleneck component are re-solved.
  Slot add_flow(std::span<const std::uint32_t> links);
  /// Retire a flow; the component it leaves behind is re-solved (it may
  /// split). The removed flow itself reports no RateChange.
  void remove_flow(Slot s);
  /// Move a live flow onto a new path (departure + arrival halves, same
  /// admission sequence). No-op when the deduplicated path is unchanged.
  void update_path(Slot s, std::span<const std::uint32_t> links);
  /// Change one link's capacity (chaos events); re-solves every component
  /// the change can reach (the link's flows seed splits and merges alike).
  void set_capacity(std::uint32_t link, double capacity);

  /// Rate movements from the last mutating call (see RateChange).
  [[nodiscard]] std::span<const RateChange> changes() const {
    return changes_;
  }

  [[nodiscard]] bool live(Slot s) const {
    return s < flows_.size() && flows_[s].live;
  }
  [[nodiscard]] double rate(Slot s) const { return flows_[s].rate; }
  [[nodiscard]] std::size_t active_flows() const { return active_; }
  [[nodiscard]] double flow_cap() const { return flow_cap_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// From-scratch canonical solve of the current population, indexed by
  /// slot (dead slots hold 0). The differential oracle: must equal the
  /// incrementally maintained rates element-for-element.
  [[nodiscard]] std::vector<double> oracle_rates();
  /// Runs the oracle and compares exactly; updates the differential
  /// counters. Returns true when every rate matches bitwise.
  bool check_differential();

 private:
  struct Flow {
    std::uint64_t seq = 0;               ///< monotonic admission sequence
    std::vector<std::uint32_t> links;    ///< deduplicated path
    std::vector<std::uint32_t> pos;      ///< index in flows_on_[links[i]]
    double rate = 0.0;
    bool live = false;
  };
  struct Incidence {
    Slot slot = 0;
    std::uint32_t ord = 0;  ///< back-pointer: index into Flow::pos
  };

  [[nodiscard]] bool constrained(std::uint32_t l) const;
  void link_insert(Slot s);
  void link_remove(Slot s);
  void next_epoch();
  /// BFS over constrained links from `seed`, appending the (unvisited part
  /// of the) component to `out` under the current mark epoch.
  void gather_component(Slot seed, std::vector<Slot>& out);
  /// Canonical component solve: sorts members by seq, filters paths to
  /// constrained links, runs max_min_rates. Returns per-member rates.
  std::span<const double> canonical_solve(std::vector<Slot>& members);
  /// canonical_solve + stored-rate update + RateChange / stats recording.
  void solve_members(std::vector<Slot>& members);
  void note_event();

  double flow_cap_ = 0.0;
  std::vector<double> capacity_;
  std::vector<Flow> flows_;
  std::vector<Slot> free_;
  std::vector<std::vector<Incidence>> flows_on_;  ///< live flows per link
  std::uint64_t next_seq_ = 1;
  std::size_t active_ = 0;
  std::uint64_t total_incidences_ = 0;
  Stats stats_;

  // Event scratch (allocation-free steady state).
  MaxMinWorkspace ws_;
  std::vector<RateChange> changes_;
  std::vector<std::uint32_t> flow_mark_;
  std::vector<std::uint32_t> link_mark_;
  std::uint32_t mark_epoch_ = 0;
  std::vector<Slot> members_;
  std::vector<Slot> spill_;
  std::vector<Slot> seeds_;
  std::vector<std::uint32_t> tmp_links_;
  std::vector<std::uint32_t> sub_links_;
  std::vector<std::uint32_t> sub_begin_;
  std::vector<std::span<const std::uint32_t>> sub_views_;
};

}  // namespace mifo::sim
