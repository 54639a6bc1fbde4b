// Builds a runnable packet-level network from an AS graph: border routers
// per the IbgpPlan, eBGP links, full-mesh iBGP links, host attachments,
// BGP-derived FIBs, and one MIFO daemon per AS.
//
// This is the substitute for the paper's 15-machine testbed: every
// "machine" becomes a dp::Router (kernel forwarding engine) and the daemons
// play the XORP MIFO module. One emulation type and one builder serve both
// packet engines: `finalize()` wires the serial dp::Network (the oracle),
// `finalize(num_shards)` the sharded dp::ShardedNetwork (DESIGN.md §6), by
// the same code, so an outcome difference between the two can only come
// from the engines.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/daemon.hpp"
#include "dataplane/network.hpp"
#include "dataplane/shard.hpp"
#include "topo/as_graph.hpp"

namespace mifo::testbed {

struct BuildParams {
  /// Inter-AS propagation delay. Every link runs at the paper's Gigabit
  /// Ethernet rate; iBGP and host links keep a 20 µs delay.
  SimTime ebgp_delay = 50e-6;
};

struct HostAttachment {
  HostId host;
  AsId as;
  RouterId router;
  PortId port;  ///< `router`'s port to the host
  dp::Addr addr = dp::kInvalidAddr;
};

/// The finished emulation on packet engine `NetT` (dp::Network or
/// dp::ShardedNetwork). Non-movable once daemons are registered.
template <typename NetT>
struct BasicEmulation {
  std::unique_ptr<NetT> net;
  std::vector<HostAttachment> hosts;
  std::vector<core::AsWiring> wirings;                  // indexed by AS id
  std::vector<std::unique_ptr<core::MifoDaemon>> daemons;  // indexed by AS id

  /// Turns MIFO on for the given ASes: flags every router, registers the
  /// AS's daemon tick (on the sharded plane, on the shard that owns the AS,
  /// so the control plane runs where its routers' monitor state lives).
  /// Call once, before running.
  void enable_mifo(const std::vector<AsId>& ases,
                   const dp::RouterConfig& base_config,
                   SimTime daemon_interval = 0.01);

  [[nodiscard]] const HostAttachment& attachment(HostId h) const;
};

using Emulation = BasicEmulation<dp::Network>;
/// The sharded plane: the packet engine runs on forwarding workers.
using ShardedEmulation = BasicEmulation<dp::ShardedNetwork>;

extern template struct BasicEmulation<dp::Network>;
extern template struct BasicEmulation<dp::ShardedNetwork>;

/// Outcome of plant_valley_ring.
struct ValleyRing {
  std::vector<AsId> ring;  ///< the peering triangle, in ring order
  dp::Addr dst = dp::kInvalidAddr;
  std::string error;  ///< why nothing was planted; empty on success
};

// The writers of alt ports besides the daemons (DESIGN.md §5.4b). A daemon
// writes an alt port only when its election changes, so each of these makes
// the daemons whose ports it touches forget what they wrote.

/// The planted Tag-Check violation (Fig. 2(a)) behind `mifo-verify
/// --mutate-valley` and the chaos plant-valley event: on the first peering
/// triangle of `g`, points each ring AS's alt port clockwise along the ring
/// for one prefix owned outside it, and disables the Tag-Check on those
/// routers — the state Eq. 3 exists to forbid. Config writes bypass the FIB
/// hooks, so they are noted on the network's change log by hand. Each ring
/// AS's daemon forgets `dst`, so its next tick writes its own election back
/// over the planted alt port.
[[nodiscard]] ValleyRing plant_valley_ring(Emulation& em,
                                           const topo::AsGraph& g);

/// A BGP withdrawal of every prefix `owner` originates: for each of its
/// hosts and each other AS, the daemon drops the prefix, then every router
/// of that AS drops its FIB entry, default route and the alt port riding on
/// it together — a withdrawn prefix must not keep attracting deflections.
/// The owner's routers keep local delivery. Returns false when `owner`
/// originates no prefix.
bool withdraw_prefix(Emulation& em, AsId owner);

/// Re-announces `owner`'s prefixes through the builder's install pass
/// (wiring.hpp), fed from `g`'s converged routes: FIB defaults model the
/// all-sessions-up state, exactly as the builder installed them, and every
/// daemon with a route gets the prefix back through update_prefix.
void reinstall_prefix(Emulation& em, const topo::AsGraph& g, AsId owner);

class EmulationBuilder {
 public:
  /// `expand[i]` = build one border router per adjacency of AS i (otherwise
  /// the AS collapses to a single router).
  EmulationBuilder(const topo::AsGraph& g, std::vector<bool> expand,
                   BuildParams params = {});

  /// Attach a host to the AS (to its first router). Must precede finalize.
  HostId attach_host(AsId as);

  /// Wires everything into the serial engine and programs the FIBs. Each
  /// finalize call builds a fresh, independent emulation.
  [[nodiscard]] Emulation finalize() const;

  /// The same wiring on `num_shards` forwarding workers.
  [[nodiscard]] ShardedEmulation finalize(std::size_t num_shards,
                                          dp::ShardConfig cfg = {}) const;

 private:
  /// Routers, then eBGP links, then iBGP links, then hosts, then host
  /// prefixes, then daemons — the one construction order both engines see.
  template <typename NetT>
  [[nodiscard]] BasicEmulation<NetT> build(std::unique_ptr<NetT> net) const;

  const topo::AsGraph& g_;
  std::vector<bool> expand_;
  BuildParams params_;
  std::vector<AsId> pending_hosts_;
};

}  // namespace mifo::testbed
