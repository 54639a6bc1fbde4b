// Packet representation for the packet-level data plane.
//
// Carries the two header artifacts MIFO adds (Section III):
//  * the one-bit valley-free tag ("one more bit is enough", III-A4) — in a
//    real deployment an unused MPLS label bit or a reserved IP-header bit;
//  * an optional outer IP header for the IP-in-IP encapsulation between
//    iBGP peers (III-B).
#pragma once

#include <cstdint>

#include "common/contracts.hpp"
#include "common/types.hpp"

namespace mifo::dp {

/// Flat address space: hosts and router loopbacks.
using Addr = std::uint32_t;
inline constexpr Addr kInvalidAddr = 0;

enum class PacketKind : std::uint8_t { Data, Ack };

struct Packet {
  // ---- inner header -------------------------------------------------------
  Addr src = kInvalidAddr;
  Addr dst = kInvalidAddr;
  FlowId flow;
  PacketKind kind = PacketKind::Data;
  std::uint32_t seq = 0;     ///< data sequence number (packets)
  std::uint32_t ack_no = 0;  ///< cumulative ack (first missing seq)
  std::uint32_t size_bytes = 0;
  std::uint8_t ttl = 64;
  /// MIFO tag bit: 1 iff the packet entered the current AS from a customer
  /// (or originated locally). Rewritten at every AS entering point.
  bool mifo_tag = false;

  // ---- outer header (IP-in-IP), present only between iBGP peers ----------
  bool encapsulated = false;
  Addr outer_src = kInvalidAddr;
  Addr outer_dst = kInvalidAddr;

  [[nodiscard]] std::uint32_t wire_bytes() const {
    // 20-byte outer header overhead when encapsulated.
    return size_bytes + (encapsulated ? 20u : 0u);
  }
};

/// Line 13 of Algorithm 1: wrap with an outer header addressed to the iBGP
/// peer holding the alternative path.
inline void encap(Packet& p, Addr self, Addr ibgp_peer) {
  MIFO_EXPECTS(!p.encapsulated);
  p.encapsulated = true;
  p.outer_src = self;
  p.outer_dst = ibgp_peer;
}

/// Lines 2–3 of Algorithm 1: recover the sender and the original packet.
/// Returns the iBGP sender address.
inline Addr decap(Packet& p) {
  MIFO_EXPECTS(p.encapsulated);
  const Addr sender = p.outer_src;
  p.encapsulated = false;
  p.outer_src = kInvalidAddr;
  p.outer_dst = kInvalidAddr;
  return sender;
}

}  // namespace mifo::dp
