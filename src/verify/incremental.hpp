// Incremental multi-property verifier with a memoized per-destination
// proof cache.
//
// The full provers (check_loop_freedom, check_valley_freedom,
// check_reachability) and the deployment lints are all exactly
// per-destination: destination d's verdict depends only on d's FIB
// entries, the router configs, the static port topology and d's RIB
// knowledge — never on another destination's state (each full prover even
// resets its color array per destination). So proofs memoize per
// destination, and the network's dp::ChangeLog tells us exactly which
// destinations a batch of mutations can have invalidated. Everything else
// is served from cache, making per-event verify cost proportional to the
// fault's footprint instead of the deployment size (Prelude's scoped
// re-verification, PAPERS.md).
//
// The dirty mapping (soundness argument in docs/VERIFICATION.md):
//   FibChange(r, dst)      -> dst
//   DaemonChange(as, pfx)  -> pfx  (the lints read the daemon's RIB)
//   ConfigChange(r)        -> every dst in r's current FIB (a dst that
//                             entered or left it since has its own
//                             FibChange record)
//   PortChange(r, p)       -> nothing for loop/valley/lint proofs, which
//                             never read Port::up; every dst in r's FIB for
//                             the blackhole analysis, which does.
// Routing-plane events have no row: what a prover reads changes only
// through the data-plane writes they cause, and each of those is logged.
//
// Contract (enforced by the differential property tests and the chaos
// engine's differential mode): the merged incremental verdict is verdict-,
// counterexample- and lint-identical to check_from_scratch on the same
// state (same_findings). The full provers are retained untouched as the
// oracle, and check_from_scratch is the one place that runs them all.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "core/daemon.hpp"
#include "dataplane/change_log.hpp"
#include "dataplane/network.hpp"
#include "topo/as_graph.hpp"
#include "verify/deflection_graph.hpp"
#include "verify/lint.hpp"
#include "verify/reachability.hpp"
#include "verify/valley.hpp"

namespace mifo::verify {

/// Destinations whose loop and valley proofs and lints `log`'s records can
/// invalidate (FIB, daemon and config rows), ascending and unique. Router
/// records resolve against the *current* FIBs in `routers`.
[[nodiscard]] std::vector<dp::Addr> dirty_destinations(
    const dp::ChangeLog& log, std::span<const dp::Router> routers);

/// The destinations only the port-state-sensitive blackhole analysis must
/// re-prove (PortChange rows), ascending and unique.
[[nodiscard]] std::vector<dp::Addr> port_dirty_destinations(
    const dp::ChangeLog& log, std::span<const dp::Router> routers);

/// Loop and valley freedom and the deployment lints are re-proved for every
/// dirty destination; the blackhole analysis is the one optional property.
struct IncrementalConfig {
  /// Blackhole analysis (reachability.hpp). Off by default: it is the one
  /// port-state-sensitive property, and under live fault injection a downed
  /// link legitimately strands traffic until reconvergence.
  bool blackhole = false;
};

/// Cost accounting for one verification round.
struct IncrementalStats {
  std::size_t destinations = 0;        ///< destinations in the universe
  std::size_t dirty_destinations = 0;  ///< re-proved this round
  std::size_t cache_hits = 0;          ///< served entirely from cache
  std::size_t states_explored = 0;     ///< states re-explored this round
  std::size_t edges_explored = 0;      ///< edges re-explored this round
};

/// One snapshot's verdict, from the incremental verifier or from scratch.
struct Verdict {
  /// Over every FIB destination, destination-ascending. Incrementally,
  /// `loop.stats` aggregates the cached per-destination exploration costs
  /// (what the proofs cost when last computed); the cost of THIS round is
  /// in `stats`.
  LoopCheck loop;
  ValleyCheck valley;
  std::vector<LintIssue> lint;  ///< destination-ascending, daemon order
                                ///< within one, like the full lint pass
  ReachabilityCheck reach;      ///< empty unless IncrementalConfig::blackhole
  IncrementalStats stats;

  /// Loop- and valley-free, lint-clean and (when analysed) blackhole-free.
  [[nodiscard]] bool clean() const {
    return loop.loop_free && valley.valley_free && lint.empty() && reach.clean;
  }
};

/// The untouched full provers over every FIB destination, under `cfg`: the
/// oracle the incremental verifier must match. `stats` counts every
/// destination as re-proved and no cache hit.
[[nodiscard]] Verdict check_from_scratch(
    const dp::Network& net, const topo::AsGraph& g,
    std::span<const std::unique_ptr<core::MifoDaemon>> daemons,
    std::span<const std::pair<dp::Addr, AsId>> owners,
    const IncrementalConfig& cfg = {});

/// Whether two verdicts agree: `loop_free` and the rendered cycles, valleys,
/// lints and blackholes, in order (both paths emit destination-ascending).
[[nodiscard]] bool same_findings(const Verdict& a, const Verdict& b);

class IncrementalVerifier {
 public:
  explicit IncrementalVerifier(IncrementalConfig cfg = {}) : cfg_(cfg) {}

  /// Re-proves the destinations `log` dirtied (all destinations on the
  /// first call), serves the rest from cache, and returns the merged
  /// verdicts. Destinations that vanished from every FIB are dropped; new
  /// ones are proved fresh. The destination universe is swept from the FIBs
  /// on the first call and after invalidate_all(); later calls update it
  /// from `log`'s FIB records, which is sound while every FIB insert and
  /// remove since the previous call is among them (a ChangeLog attached to
  /// the network records all of them). The caller clears `log` afterwards
  /// (or keeps accumulating — re-proving a clean destination is wasteful
  /// but harmless).
  Verdict check(const dp::Network& net, const topo::AsGraph& g,
                std::span<const std::unique_ptr<core::MifoDaemon>> daemons,
                std::span<const std::pair<dp::Addr, AsId>> owners,
                const dp::ChangeLog& log);

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
                      const dp::ChangeLog& log);

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
