// Builds a runnable packet-level network (dp::Network) from an AS graph:
// border routers per the IbgpPlan, eBGP links, full-mesh iBGP links, host
// attachments, BGP-derived FIBs, and one MIFO daemon per AS.
//
// This is the substitute for the paper's 15-machine testbed: every
// "machine" becomes a dp::Router (kernel forwarding engine) and the daemons
// play the XORP MIFO module.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bgp/ibgp.hpp"
#include "core/daemon.hpp"
#include "dataplane/network.hpp"
#include "topo/as_graph.hpp"

namespace mifo::testbed {

struct BuildParams {
  Mbps ebgp_rate = kGigabit;  ///< paper: Gigabit Ethernet everywhere
  SimTime ebgp_delay = 50e-6;
  Mbps ibgp_rate = kGigabit;
  SimTime ibgp_delay = 20e-6;
  Mbps host_rate = kGigabit;  ///< paper: all machines on Gigabit Ethernet
  SimTime host_delay = 20e-6;
};

struct HostAttachment {
  HostId host;
  AsId as;
  RouterId router;
  PortId port;  ///< `router`'s port to the host
  dp::Addr addr = dp::kInvalidAddr;
};

/// The finished emulation. Non-movable once daemons are registered.
struct Emulation {
  std::unique_ptr<dp::Network> net;
  std::unique_ptr<bgp::IbgpPlan> plan;
  std::vector<HostAttachment> hosts;
  std::vector<core::AsWiring> wirings;                  // indexed by AS id
  std::vector<std::unique_ptr<core::MifoDaemon>> daemons;  // indexed by AS id

  /// Turns MIFO on for the given ASes: flags every router, registers the
  /// AS's daemon tick. Call once, before running.
  void enable_mifo(const std::vector<AsId>& ases,
                   const dp::RouterConfig& base_config,
                   SimTime daemon_interval = 0.01);

  [[nodiscard]] const HostAttachment& attachment(HostId h) const;
};

/// Outcome of plant_valley_ring.
struct ValleyRing {
  std::vector<AsId> ring;  ///< the peering triangle, in ring order
  dp::Addr dst = dp::kInvalidAddr;
  std::string error;  ///< why nothing was planted; empty on success
};

/// The planted Tag-Check violation (Fig. 2(a)) behind `mifo-verify
/// --mutate-valley` and the chaos plant-valley event: on the first peering
/// triangle of `g`, points each ring AS's alt port clockwise along the ring
/// for one prefix owned outside it, and disables the Tag-Check on those
/// routers — the state Eq. 3 exists to forbid. Config writes bypass the FIB
/// hooks, so they are noted on the network's change log by hand.
[[nodiscard]] ValleyRing plant_valley_ring(Emulation& em,
                                           const topo::AsGraph& g);

class EmulationBuilder {
 public:
  /// `expand[i]` = build one border router per adjacency of AS i (otherwise
  /// the AS collapses to a single router).
  EmulationBuilder(const topo::AsGraph& g, std::vector<bool> expand,
                   BuildParams params = {});

  /// Attach a host to the AS (to its first router). Must precede finalize.
  HostId attach_host(AsId as);

  /// Wires everything and computes/programs the FIBs. Call once.
  [[nodiscard]] Emulation finalize();

 private:
  const topo::AsGraph& g_;
  std::vector<bool> expand_;
  BuildParams params_;
  std::vector<AsId> pending_hosts_;
};

}  // namespace mifo::testbed
