// Fault-injection schedules (docs/CHAOS.md).
//
// A chaos::Plan is a time-ordered list of events injected into a running
// deployment: inter-AS links flap, port capacities degrade, BGP origins are
// withdrawn and re-announced, iBGP sessions go stale, whole routers freeze,
// and congestion bursts arrive. Plans come from a small text DSL (scripted
// scenarios, regression cases) or from a seeded generator (randomized churn
// with Poisson arrivals and exponential repair times) — either way the plan
// is plain data, fully determined before the run starts, so a (plan, seed)
// pair reproduces an experiment bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "topo/as_graph.hpp"

namespace mifo::chaos {

enum class EventKind : std::uint8_t {
  LinkDown,     ///< inter-AS link a<->b goes down (both directions)
  LinkUp,       ///< ...and comes back
  Degrade,      ///< link a<->b capacity scaled to `value` * nominal
  Restore,      ///< link a<->b capacity back to nominal
  Withdraw,     ///< AS `a` withdraws its originated prefix(es)
  Reannounce,   ///< ...and re-announces them
  IbgpDrop,     ///< AS `a`'s iBGP session drops: spare adverts go stale
  IbgpRestore,  ///< iBGP session re-established
  RouterFreeze,   ///< AS `a`'s routers die: all ports down, daemon frozen
  RouterRestart,  ///< routers come back with alt state lost
  Burst,        ///< `count` congestion flows of `value` MB from AS a to b
  PlantValley,  ///< plant an Eq.3-violating deflection ring (negative test)
  PlantStaleRoute,  ///< withdraw an origin but skip its delta route
                    ///< recompute: a stale CSR segment the differential
                    ///< verify mode must catch (negative test)
};

[[nodiscard]] const char* to_string(EventKind k);

/// Whether `k` is the recovery half of a fail->recover pair.
[[nodiscard]] bool is_recovery(EventKind k);
/// The recovery kind paired with a failure kind (nullopt for one-shot
/// kinds like Burst/PlantValley and for recovery kinds themselves).
[[nodiscard]] std::optional<EventKind> recovery_of(EventKind k);

struct Event {
  SimTime t = 0.0;
  EventKind kind = EventKind::LinkDown;
  AsId a;  ///< subject AS (link endpoint / origin / frozen AS / burst src)
  AsId b;  ///< other link endpoint / burst destination (when applicable)
  double value = 0.0;        ///< Degrade factor or Burst flow size in MB
  std::uint32_t count = 0;   ///< Burst flow count

  /// One-line DSL rendering ("at 0.5 link-down 3 7"): times, factors and
  /// sizes in the shortest form that parses back to the same double.
  [[nodiscard]] std::string to_string() const;
};

struct Plan {
  SimTime duration = 1.0;
  std::vector<Event> events;

  /// Stable-sorts events by time (parsers/generators emit sorted plans;
  /// call after hand-building one).
  void normalize();
};

/// Most events one `every` directive may expand to; a plan past it is an
/// input error rather than an unbounded allocation.
inline constexpr std::size_t kMaxEveryEvents = 1'000'000;

/// Most flows one `burst` may start; a larger COUNT is an input error
/// rather than an unbounded allocation.
inline constexpr std::uint32_t kMaxBurstFlows = 100'000;

/// Bytes per flow of a burst of `size_mb` MB (at least 1 kB).
[[nodiscard]] double burst_flow_bytes(double size_mb);

/// Parses the plan DSL. Grammar (one directive per line, `#` comments):
///
///   duration T
///   at T link-down A B | link-up A B
///   at T degrade A B FACTOR | restore A B
///   at T withdraw A | reannounce A
///   at T ibgp-drop A | ibgp-restore A
///   at T freeze A | restart A
///   at T burst SRC DST COUNT SIZE_MB       (COUNT <= kMaxBurstFlows)
///   at T plant-valley
///   at T plant-stale-route
///   every START PERIOD <event...>          (until `duration`; capped above)
///   fail T mttr M link A B                 (link-down @T, link-up @T+M)
///   fail T mttr M prefix A                 (withdraw / reannounce)
///   fail T mttr M ibgp A                   (ibgp-drop / ibgp-restore)
///   fail T mttr M router A                 (freeze / restart)
///
/// An `at` time or a `fail` recovery time (T + M) past `duration` is
/// refused, wherever the `duration` line stands. Returns nullopt and fills
/// `error` ("line N: ...") on the first malformed line.
[[nodiscard]] std::optional<Plan> parse_plan(std::istream& in,
                                             std::string& error);
[[nodiscard]] std::optional<Plan> parse_plan(const std::string& text,
                                             std::string& error);

/// Renders a plan back into the DSL; parse_plan returns every field exactly.
[[nodiscard]] std::string format_plan(const Plan& plan);

/// The first event that names an AS id outside a topology of `num_ases`
/// ASes (a link endpoint, origin, frozen AS or burst endpoint), or nullopt
/// when every event fits. The engine indexes its per-AS state by these ids,
/// so a plan must pass this before it runs.
[[nodiscard]] std::optional<Event> validate_plan(const Plan& plan,
                                                 std::size_t num_ases);

struct GenParams {
  std::uint64_t seed = 1;
  SimTime duration = 2.0;
  /// Mean fault arrival rate (events/sec, Poisson).
  double rate = 4.0;
  /// Mean time-to-repair for paired faults (exponential).
  SimTime mttr = 0.2;
  /// ASes owning a prefix (withdrawals target these); empty = any AS.
  std::vector<AsId> prefix_owners;
};

/// Seeded random plan over `g`: Poisson fault arrivals, uniformly chosen
/// fault category and subject, exponential MTTR. Every failure gets its
/// paired recovery inside the plan duration, so a clean run always ends
/// quiescent and repaired. Deterministic in (g, params). Requires
/// rate x duration <= kMaxEveryEvents, the bound an `every` has.
[[nodiscard]] Plan generate_plan(const topo::AsGraph& g,
                                 const GenParams& params);

}  // namespace mifo::chaos
