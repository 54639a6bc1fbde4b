// Incremental multi-property verifier with a memoized per-destination
// proof cache.
//
// The full provers (check_loop_freedom, check_valley_freedom,
// check_reachability) and the deployment lints are all exactly
// per-destination: destination d's verdict depends only on d's FIB
// entries, the router configs, the static port topology and d's RIB
// knowledge — never on another destination's state (each full prover even
// resets its color array per destination). So proofs memoize per
// destination, and a ChangeSet (changeset.hpp) tells us exactly which
// destinations a batch of mutations can have invalidated. Everything else
// is served from cache, making per-event verify cost proportional to the
// fault's footprint instead of the deployment size (Prelude's scoped
// re-verification, PAPERS.md).
//
// Contract (enforced by the differential property tests and the chaos
// engine's differential mode): the merged incremental result is verdict-,
// counterexample- and lint-identical to a from-scratch full-prover run on
// the same state. The full provers are retained untouched as the oracle —
// the PR-1/PR-5 pattern.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "core/daemon.hpp"
#include "dataplane/network.hpp"
#include "topo/as_graph.hpp"
#include "verify/changeset.hpp"
#include "verify/deflection_graph.hpp"
#include "verify/lint.hpp"
#include "verify/reachability.hpp"
#include "verify/valley.hpp"

namespace mifo::verify {

/// Loop and valley freedom and the deployment lints are re-proved for every
/// dirty destination; the blackhole analysis is the one optional property.
struct IncrementalConfig {
  /// Blackhole analysis (reachability.hpp). Off by default: it is the one
  /// port-state-sensitive property, and under live fault injection a downed
  /// link legitimately strands traffic until reconvergence.
  bool blackhole = false;
};

/// Cost accounting for one check() round.
struct IncrementalStats {
  std::size_t destinations = 0;        ///< destinations in the universe
  std::size_t dirty_destinations = 0;  ///< re-proved this round
  std::size_t cache_hits = 0;          ///< served entirely from cache
  std::size_t states_explored = 0;     ///< states re-explored this round
  std::size_t edges_explored = 0;      ///< edges re-explored this round
};

struct IncrementalResult {
  /// Merged over every destination (cached + recomputed), destination-
  /// ascending like the full prover. `loop.stats` aggregates the cached
  /// per-destination exploration costs (what the proofs cost when last
  /// computed); the cost of THIS round is in `stats`.
  LoopCheck loop;
  ValleyCheck valley;
  std::vector<LintIssue> lint;  ///< destination-ascending, daemon order
                                ///< within one, like the full lint pass
  ReachabilityCheck reach;
  IncrementalStats stats;
};

class IncrementalVerifier {
 public:
  explicit IncrementalVerifier(IncrementalConfig cfg = {}) : cfg_(cfg) {}

  /// Re-proves the destinations `changes` dirtied (all destinations on the
  /// first call), serves the rest from cache, and returns the merged
  /// verdicts. Destinations that vanished from every FIB are dropped; new
  /// ones are proved fresh. The destination universe is swept from the FIBs
  /// on the first call and after invalidate_all(); later calls update it
  /// from `changes`' FIB records, which is sound while every FIB insert and
  /// remove since the previous call is among them (a ChangeLog attached to
  /// the network records all of them). The caller clears `changes`
  /// afterwards (or keeps accumulating — re-proving a clean destination is
  /// wasteful but harmless).
  IncrementalResult check(const dp::Network& net, const topo::AsGraph& g,
                          std::span<const std::unique_ptr<core::MifoDaemon>>
                              daemons,
                          std::span<const std::pair<dp::Addr, AsId>> owners,
                          const ChangeSet& changes);

  /// Drops every cached proof (the next check() re-sweeps the FIBs and
  /// re-proves everything).
  void invalidate_all() { cache_.clear(); }

  [[nodiscard]] const IncrementalConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t cached_destinations() const {
    return cache_.size();
  }

 private:
  struct DestProof {
    bool loop_free = true;
    std::vector<Cycle> cycles;
    bool valley_free = true;
    std::vector<ValleyViolation> valleys;
    std::vector<LintIssue> lints;
    bool reach_clean = true;
    std::vector<Blackhole> blackholes;
    VerifyStats loop_stats;  ///< exploration cost when last proved
  };

  /// Brings `universe_` up to date with the FIBs: a full sweep when the
  /// cache is empty, else membership tests for the recorded FIB changes.
  void track_universe(std::span<const dp::Router> routers,
                      const ChangeSet& changes);

  IncrementalConfig cfg_;
  /// Ordered: merging iterates destination-ascending, matching the full
  /// prover's fib_destinations() order.
  std::map<dp::Addr, DestProof> cache_;
  /// Every destination some FIB holds, ascending: fib_destinations() as of
  /// the last check(), kept current from FibChange records. After every
  /// check() the cache holds a proof for exactly these destinations.
  std::vector<dp::Addr> universe_;
};

}  // namespace mifo::verify
