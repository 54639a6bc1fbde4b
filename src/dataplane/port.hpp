// Output ports with byte-bounded tx queues — the congestion signal MIFO
// reads ("the queuing ratio of output ports", Section II-A).
#pragma once

#include <cstdint>
#include <deque>

#include "common/types.hpp"
#include "dataplane/packet.hpp"
#include "topo/relationship.hpp"

namespace mifo::dp {

/// A node in the packet plane is either a router or an end host.
struct NodeRef {
  enum class Kind : std::uint8_t { Router, Host } kind = Kind::Router;
  std::uint32_t id = 0;

  static NodeRef router(RouterId r) { return {Kind::Router, r.value()}; }
  static NodeRef host(HostId h) { return {Kind::Host, h.value()}; }
  [[nodiscard]] bool is_router() const { return kind == Kind::Router; }
  friend bool operator==(NodeRef, NodeRef) = default;
};

/// What is attached on the other side of a port.
enum class PortKind : std::uint8_t {
  Ebgp,  ///< inter-AS link to an eBGP peer
  Ibgp,  ///< intra-AS link to an iBGP peer (full mesh)
  Host,  ///< access link to an end host
};

struct Port {
  PortKind kind = PortKind::Host;
  NodeRef peer;
  PortId peer_port;  ///< the reverse-direction port at the peer
  Addr peer_addr = kInvalidAddr;
  Mbps rate = kGigabit;
  SimTime delay = 50e-6;

  /// eBGP metadata: the neighboring AS and what it is *to this router's AS*.
  AsId neighbor_as = AsId::invalid();
  topo::Rel neighbor_rel = topo::Rel::Peer;

  /// Failure injection: a downed port silently discards everything
  /// enqueued on it (cable pull). The transport's RTO recovers flows once
  /// the port comes back up.
  bool up = true;

  // --- tx queue ------------------------------------------------------------
  std::deque<Packet> queue;
  std::uint64_t queue_bytes = 0;
  std::uint64_t queue_capacity_bytes = 100 * 1000;  // 100 x 1 KB packets
  bool busy = false;

  // --- counters --------------------------------------------------------------
  std::uint64_t bytes_sent_total = 0;
  std::uint64_t pkts_sent_total = 0;
  std::uint64_t drops_overflow = 0;
  std::uint64_t drops_down = 0;
  /// Snapshot used by the link monitor to compute the sending rate over the
  /// last monitoring window (the paper's "link monitoring", III-C).
  std::uint64_t monitor_bytes_snapshot = 0;
  /// When the last flow was newly pinned away from this (congested) port;
  /// gates the router's pin cooldown.
  SimTime last_pin_time = -1e18;

  [[nodiscard]] double queue_ratio() const {
    if (queue_capacity_bytes == 0) return 0.0;
    return static_cast<double>(queue_bytes) /
           static_cast<double>(queue_capacity_bytes);
  }

  /// True when a packet fits without overflowing.
  [[nodiscard]] bool can_accept(const Packet& p) const {
    return queue_bytes + p.wire_bytes() <= queue_capacity_bytes;
  }
};

}  // namespace mifo::dp
