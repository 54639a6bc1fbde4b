// The chaos engine: drives a chaos::Plan into a running packet-level
// emulation and verifies safety under churn (docs/CHAOS.md).
//
// The engine owns the run loop: it advances the dp::Network event queue to
// each scheduled fault, applies it (cable pulls via Network::set_port_up,
// BGP churn on its delta routing table and the testbed's prefix passes,
// daemon staleness/freezes, bursts), then snapshots the installed
// forwarding state and re-runs the verify:: deflection-graph prover and
// lints — once immediately after the event and once after a reconvergence
// delay that covers at least one daemon tick. A
// clean chaos run is therefore a safety-under-churn proof over every
// quiescent point; a dirty one yields the concrete counterexample cycle
// together with the event that triggered it.
#pragma once

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/delta.hpp"
#include "chaos/plan.hpp"
#include "common/rng.hpp"
#include "obs/artifact.hpp"
#include "obs/registry.hpp"
#include "dataplane/change_log.hpp"
#include "testbed/emulation.hpp"
#include "verify/incremental.hpp"

namespace mifo::chaos {

/// How each quiescent-point snapshot proves safety.
enum class VerifyMode : std::uint8_t {
  /// From-scratch full provers at every snapshot (the PR-4 behaviour).
  Full,
  /// verify::IncrementalVerifier fed by the network's ChangeLog: only the
  /// destinations the fault dirtied are re-proved (cost proportional to
  /// the fault's footprint).
  Incremental,
  /// Both, with the full provers as the oracle: any difference in verdict,
  /// counterexamples or lints between the two is itself a violation. The
  /// check.sh differential gate runs chaos plans in this mode.
  Differential,
};

[[nodiscard]] const char* to_string(VerifyMode m);

struct EngineConfig {
  std::uint64_t seed = 1;
  /// Re-run verify:: at every snapshot (the whole point; off only for
  /// throughput-only benches where verification cost would dominate). Each
  /// snapshot runs the loop and valley-freedom provers and the FIB/RIB lints.
  bool verify = true;
  /// Proof strategy per snapshot (see VerifyMode).
  VerifyMode verify_mode = VerifyMode::Full;
};

/// One plan event as the run applied (or skipped) it: its verification
/// outcomes, its recovery milestones and its verify and route costs.
struct AppliedEvent {
  Event event;
  bool applied = false;      ///< false: no-op (e.g. withdraw of a non-owner)
  std::string detail;        ///< what concretely changed
  bool clean_immediate = true;  ///< verifier verdict right after the event
  bool clean_reconverged = true;  ///< ...and after the reconvergence delay
  /// Recovery milestones after `event.t`, in simulated seconds; -1 marks
  /// one that never happened (a fault with no packet impact, or no paired
  /// recovery event). First impact is attributed by drop-counter movement
  /// between verification snapshots, so its resolution is the snapshot
  /// cadence and concurrent faults can alias onto one another — it is
  /// evidence, not proof, unlike t_verified which is a verifier verdict.
  SimTime t_first_impact = -1.0;  ///< first snapshot with new drops
  SimTime t_reconverged = -1.0;   ///< paired recovery event applied
  SimTime t_verified = -1.0;      ///< first clean verify after the repair
  /// Verification cost of the immediate (injection-time) snapshot. Under
  /// VerifyMode::Full, dirty_destinations counts every destination and
  /// cache_hits stays 0.
  std::size_t dirty_destinations = 0;
  std::size_t states_explored = 0;
  std::size_t cache_hits = 0;
  /// Delta route-recompute footprint of the event (bgp::DeltaStats): how
  /// many destinations the routing plane actually re-ran Gao–Rexford for,
  /// view-patched without a decision run, or kept pointer-identical. All 0
  /// for events with no routing effect.
  std::size_t route_recomputed = 0;
  std::size_t route_patched = 0;
  std::size_t route_unchanged = 0;

  /// First clean verifier snapshot after the repair minus the failure
  /// time; negative when the failure was never verified recovered.
  [[nodiscard]] double recovery_latency() const {
    return t_verified >= 0.0 ? t_verified - event.t : -1.0;
  }
};

/// A verification failure attributed to the event that triggered it.
struct Violation {
  SimTime t = 0.0;               ///< snapshot time
  std::size_t event_index = 0;   ///< last applied event before the snapshot
  std::string description;       ///< cycle or lint rendering
};

struct Report {
  std::vector<AppliedEvent> log;
  std::vector<Violation> violations;
  std::size_t checks_run = 0;
  std::size_t checks_clean = 0;
  std::size_t events_applied = 0;
  bool safe = true;  ///< every snapshot loop-free and lint-clean
  verify::VerifyStats last_stats;
  VerifyMode verify_mode = VerifyMode::Full;
  /// Differential mode: snapshots where incremental and full verdicts
  /// disagreed (0 on a correct implementation; any mismatch also lands in
  /// `violations` and forces safe = false).
  std::size_t differential_mismatches = 0;
  /// Cumulative incremental-engine accounting across all snapshots (zeros
  /// under VerifyMode::Full).
  std::size_t total_dirty_destinations = 0;
  std::size_t total_cache_hits = 0;
  /// Delta route-recompute accounting across all applied events
  /// (DESIGN.md §5.1b): events with a routing effect, destinations
  /// recomputed, destinations view-patched, destinations kept
  /// pointer-identical.
  std::size_t route_events = 0;
  std::size_t total_route_recomputed = 0;
  std::size_t total_route_patched = 0;
  std::size_t total_route_unchanged = 0;
  /// Differential mode: destinations whose delta-maintained segment
  /// diverged from a from-scratch rebuild at some snapshot (0 on a correct
  /// implementation; mismatches land in `violations`, force safe = false).
  std::size_t route_differential_mismatches = 0;

  /// The `chaos` section of the extended mifo.run_artifact.v1 schema:
  /// events with their milestones and costs, violations and the
  /// per-failure-class recovery-latency breakdown (recovery_by_class).
  [[nodiscard]] obs::Json to_json() const;
};

class Engine {
 public:
  /// `em` must be finalized, MIFO-enabled (or not — plain BGP works too,
  /// with nothing to verify but default routes) and must outlive the
  /// engine. `g` is the AS graph the emulation was built from.
  Engine(testbed::Emulation& em, const topo::AsGraph& g,
         EngineConfig cfg = {});

  /// Attach a metrics registry: chaos.events_applied / chaos.checks /
  /// chaos.violations counters and a chaos.recovery_latency histogram
  /// (explicit bounds, 10 ms .. 2 s) accumulate under `labels`.
  void attach_registry(obs::Registry& reg, const std::string& labels);

  /// Runs the plan to completion (events, snapshots, final drain) and
  /// returns the report. Call once per engine, with a plan that passes
  /// validate_plan for the engine's topology.
  [[nodiscard]] Report run(const Plan& plan);

 private:
  /// An applied event still waiting for its first packet impact: resolved
  /// at the first snapshot whose network-wide drop total moved past the
  /// baseline captured at injection.
  struct PendingImpact {
    std::size_t log_index;
    std::uint64_t drop_baseline;
  };

  /// What one fault handler did: whether the event applied, what
  /// concretely changed, and the routing event it applied to the delta
  /// table (`route.applied` is false when it applied none).
  struct Outcome {
    bool applied;
    std::string detail;
    bgp::DeltaStats route{};
  };

  Outcome apply(const Event& ev);
  /// Nests one fault on a directed router port: the first of overlapping
  /// faults takes it down, the last recovery brings it back up.
  void nest_port_fault(RouterId r, PortId p, bool down);
  Outcome set_link_state(AsId a, AsId b, bool down);
  Outcome scale_link_rate(AsId a, AsId b, double factor);
  Outcome freeze_as(AsId as, bool freeze);
  Outcome start_burst(const Event& ev);
  /// A prefix event: applied to the delta table first, and to the FIBs and
  /// daemons (testbed::withdraw_prefix / reinstall_prefix) only when the
  /// table applied it.
  Outcome withdraw(AsId owner);
  Outcome reannounce(AsId owner);
  Outcome plant_valley();
  Outcome plant_stale_route();

  /// Verification snapshot at the current time; updates report/metrics.
  bool snapshot(Report& report, SimTime t);
  /// Network-wide drop total (all breakdown buckets) — the first-impact
  /// signal.
  [[nodiscard]] std::uint64_t drop_sum() const;

  testbed::Emulation* em_;
  const topo::AsGraph* g_;
  EngineConfig cfg_;
  /// The routing plane: converged routes towards every prefix owner
  /// (DESIGN.md §5.1b). No FIB, router config or daemon RIB reads it; the
  /// differential verify mode checks it against a from-scratch rebuild.
  bgp::DeltaRoutingTable delta_;
  Rng rng_;
  std::vector<std::pair<dp::Addr, AsId>> owners_;

  /// Down-depth per directed router port (overlapping faults nest).
  std::unordered_map<std::uint64_t, int> down_depth_;
  /// Nominal rate per directed router port touched by Degrade.
  std::unordered_map<std::uint64_t, Mbps> nominal_rate_;
  /// Log indices of failures paired with an applied recovery, waiting for
  /// the first clean snapshot at or after the recovery's time.
  std::vector<std::size_t> pending_recoveries_;
  std::vector<PendingImpact> pending_impacts_;
  /// Down-depth per undirected adjacency: the delta routing table sees a
  /// session event only on the 0 <-> 1 transitions, so overlapping faults
  /// on one link compose the same way they do for ports.
  std::unordered_map<std::uint64_t, int> adj_down_depth_;
  std::size_t last_event_index_ = 0;
  bool planted_violation_ = false;

  /// Incremental verification state (unused under VerifyMode::Full): the
  /// change log is attached to the network at construction, read by the
  /// memoizing verifier at each snapshot and cleared after it.
  dp::ChangeLog change_log_;
  verify::IncrementalVerifier inc_;
  /// Verify cost of the most recent snapshot (copied onto the event that
  /// triggered the immediate snapshot).
  verify::IncrementalStats last_cost_;

  obs::Registry::Shard* shard_ = nullptr;
  obs::MetricId m_events_ = 0;
  obs::MetricId m_checks_ = 0;
  obs::MetricId m_violations_ = 0;
  obs::MetricId m_recovery_ = 0;
  obs::MetricId m_dirty_dests_ = 0;
  obs::MetricId m_states_explored_ = 0;
  obs::MetricId m_cache_hits_ = 0;
};

}  // namespace mifo::chaos
