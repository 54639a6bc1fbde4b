// The MIFO daemon (paper Section V, Fig. 10).
//
// One daemon instance runs per AS. On every tick it
//   1. samples the spare capacity of the AS's inter-AS links (LinkMonitor —
//    the XORP module's "constantly collects available link capacity"),
//   2. elects, per destination prefix, the alternative next-hop AS with the
//      most spare capacity (the greedy selection of Section III-C),
//   3. reprograms the `alt_port` of every router FIB in the AS for the
//      prefixes whose election changed, so the forwarding engine can deflect
//      at line speed, and
//   4. runs the routers' flow re-evaluation (hysteresis back to defaults).
//
// The greedy election depends only on a prefix's set of candidate egresses,
// so prefixes that share an alternative set share a class and the daemon
// elects once per class. It writes a prefix's alt ports only when its
// class's choice differs from what it last wrote there, so it owns the alt
// ports: any other writer must make it forget (restart, forget,
// update_prefix, remove_prefix) — DESIGN.md §5.4b.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "core/link_monitor.hpp"
#include "dataplane/network.hpp"
#include "topo/relationship.hpp"

namespace mifo::core {

/// Static wiring of one AS in the packet plane, produced by the network
/// builder: its routers, its external attachments, and the intra-AS mesh.
struct AsWiring {
  AsId as;
  std::vector<RouterId> routers;

  struct Egress {
    AsId neighbor;       ///< external AS
    RouterId router;     ///< our border router facing it
    PortId port;         ///< the eBGP port on that router
    topo::Rel rel;       ///< what the neighbor is to this AS
  };
  std::vector<Egress> egresses;

  struct IntraPort {
    RouterId from;
    RouterId to;
    PortId port;  ///< port on `from` towards `to`
  };
  std::vector<IntraPort> intra;

  [[nodiscard]] const Egress* egress_to(AsId neighbor) const;
  [[nodiscard]] PortId intra_port(RouterId from, RouterId to) const;
  /// The port router `r` of this AS forwards on to leave through `port` of
  /// router `exit`: `port` itself at `exit`, else r's intra-AS link to it.
  [[nodiscard]] PortId port_towards(RouterId r, RouterId exit,
                                    PortId port) const;
};

/// One prefix's AS-level routing knowledge inside this AS (from the BGP
/// RIB): the default next-hop AS plus the alternative neighbors that export
/// a route for it.
struct PrefixRoutes {
  dp::Addr prefix = dp::kInvalidAddr;
  AsId default_neighbor = AsId::invalid();  ///< invalid => local delivery
  std::vector<AsId> alternatives;           ///< RIB neighbors != default
};

class MifoDaemon {
 public:
  /// `wiring` has at most one egress per neighbor AS (EmulationBuilder wires
  /// one eBGP link per adjacency).
  MifoDaemon(AsWiring wiring, std::vector<PrefixRoutes> prefixes);

  /// Periodic daemon work; wire into Network::add_periodic.
  void tick(dp::Network& net, SimTime now);

  /// The alternative neighbor whose alt ports the daemon last programmed
  /// for a prefix (invalid when none is). Exposed for tests and examples.
  [[nodiscard]] AsId elected_alt(dp::Addr prefix) const;

  [[nodiscard]] const AsWiring& wiring() const { return wiring_; }

  /// Read-only view of the per-prefix RIB knowledge this daemon programs
  /// alt ports from — the verifier's FIB/RIB consistency lints read this.
  [[nodiscard]] std::span<const PrefixRoutes> prefixes() const {
    return prefixes_;
  }

  // --- churn hooks (chaos engine / testbed prefix passes) --------------------
  /// Replace (or add) the RIB knowledge for one prefix, e.g. after a BGP
  /// re-announcement changed the default or the alternative set. Any alt
  /// programmed from the old knowledge is cleared; the next tick re-elects.
  void update_prefix(dp::Network& net, PrefixRoutes pr);

  /// Drop all knowledge of a withdrawn prefix and clear the alt ports it had
  /// programmed (testbed::withdraw_prefix evicts the FIB defaults).
  void remove_prefix(dp::Network& net, dp::Addr prefix);

  /// The AS's routers restarted and lost their alt state: clears every alt
  /// port on them and forgets what the daemon wrote, so its next tick
  /// reprograms every election.
  void restart(dp::Network& net);

  /// Another writer set `prefix`'s alt ports behind the daemon's back (the
  /// planted valley ring): the next tick rewrites the prefix's election.
  void forget(dp::Addr prefix);

  /// A frozen daemon skips its ticks entirely (router/XORP process crash);
  /// forwarding continues on whatever state was last programmed.
  void set_frozen(bool frozen) { frozen_ = frozen; }
  [[nodiscard]] bool frozen() const { return frozen_; }

  /// With the iBGP session dropped, border routers stop exchanging fresh
  /// spare-capacity measurements: elections keep running on the last adverts
  /// received before the drop (stale state, the paper's failure mode).
  void set_stale(bool stale) { stale_ = stale; }
  [[nodiscard]] bool stale() const { return stale_; }

 private:
  /// An egress index, or no egress: an alt-set class with every candidate
  /// down, a prefix that never elects, a cleared prefix.
  static constexpr std::uint32_t kNone = UINT32_MAX;
  /// A prefix whose alt ports the daemon does not know: the next tick
  /// writes its election whatever it is.
  static constexpr std::uint32_t kUnwritten = UINT32_MAX - 1;
  /// A prefix whose class the next rescan resolves. A daemon resolves its
  /// prefixes on its first tick, not at construction: EmulationBuilder
  /// makes a daemon for every AS, and only the enabled ones tick.
  static constexpr std::uint32_t kUnresolved = UINT32_MAX - 2;

  /// Prefixes whose alternatives resolve to the same egresses.
  struct AltClass {
    std::vector<std::uint32_t> egresses;  ///< candidates, ascending
    std::uint32_t choice = kNone;         ///< elected egress on the last tick
    std::vector<std::uint32_t> members;   ///< prefix indexes, ascending
  };
  /// Election state of prefixes_[i].
  struct Slot {
    std::uint32_t cls = kUnresolved;  ///< kNone: local or no alternatives
    std::uint32_t written = kUnwritten;  ///< egress last programmed
  };

  /// The class of `pr`'s alternative set (kNone when it never elects). A
  /// class it creates is elected on this tick's spare capacity.
  [[nodiscard]] std::uint32_t class_of(const PrefixRoutes& pr);
  [[nodiscard]] std::uint32_t elect(const AltClass& cls) const;
  void write(dp::Network& net, std::uint32_t i);
  void program_alt(dp::Network& net, dp::Addr prefix, std::uint32_t egress);
  void clear_alt(dp::Network& net, dp::Addr prefix);
  /// Position of `prefix` in prefixes_, prefixes_.size() when unknown.
  [[nodiscard]] std::size_t index_of(dp::Addr prefix) const;

  AsWiring wiring_;
  std::vector<PrefixRoutes> prefixes_;
  std::vector<Slot> slots_;  ///< parallel to prefixes_
  std::vector<AltClass> classes_;
  std::map<std::vector<std::uint32_t>, std::uint32_t> class_index_;
  /// (neighbor, egress index), ascending by neighbor.
  std::vector<std::pair<AsId, std::uint32_t>> egress_of_;
  /// routers x egresses: the port router i forwards on towards egress e.
  std::vector<PortId> port_towards_;
  /// Per router, port value -> the egress on that port (kNone otherwise).
  std::vector<std::vector<std::uint32_t>> egress_at_;
  /// Slots or class members went stale: the next tick walks every prefix.
  bool rescan_ = true;
  LinkMonitor monitor_;
  std::vector<Mbps> spare_;         ///< per egress, this tick
  std::vector<std::uint32_t> key_;  ///< class_of's reused key buffer
  bool frozen_ = false;
  bool stale_ = false;
};

}  // namespace mifo::core
