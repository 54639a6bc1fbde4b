// Static loop-freedom verification of installed forwarding state.
//
// The paper argues (Section III, Eq. 3 + the iBGP return-detection rule of
// III-B) that MIFO's hop-by-hop deflection cannot form a forwarding cycle.
// The packet emulator only *samples* runs; this module proves — or refutes,
// with a concrete router-level counterexample — the claim directly from the
// installed topology + FIB state, without running a single packet.
//
// Model: for one destination, a packet's forwarding future is fully
// determined by (router, tag, returned) —
//   * `router`    — where the packet is,
//   * `tag`       — the one-bit valley-free tag, rewritten deterministically
//                   at every AS entering point (Section III-A4),
//   * `returned`  — whether the packet just arrived IP-in-IP-encapsulated
//                   from the iBGP peer that is this router's default next
//                   hop (Algorithm 1 line 11, Fig. 2(b)).
// Every Algorithm-1 branch a packet COULD take (congestion is abstracted
// away: deflection at a MIFO-enabled router is always considered possible)
// becomes an edge between such states. The deflection graph is this state
// graph; MIFO's loop-freedom theorem is exactly "the subgraph reachable
// from real ingress states is acyclic for every destination".
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "dataplane/network.hpp"

namespace mifo::verify {

/// How one router-level hop of a hypothetical packet is taken.
enum class HopKind : std::uint8_t {
  Default,  ///< FIB `out_port` (Algorithm 1 line 22)
  AltEbgp,  ///< deflection out an eBGP `alt_port`, Tag-Check gated (16–20)
  AltIbgp,  ///< IP-in-IP handoff to the iBGP peer holding the alt (12–15)
};

[[nodiscard]] const char* to_string(HopKind k);

/// One edge of the per-destination deflection graph.
struct Hop {
  RouterId from;
  RouterId to;
  HopKind kind = HopKind::Default;
  bool tag = false;  ///< valley-free tag carried when leaving `from`
};

/// A concrete forwarding cycle: a closed router-level walk every hop of
/// which is admissible under the modeled Algorithm-1 rules. Reproducing it
/// in the packet emulator exhausts the TTL (see the differential test).
struct Cycle {
  dp::Addr dst = dp::kInvalidAddr;
  std::vector<Hop> hops;  ///< hops.front().from == hops.back().to
  [[nodiscard]] std::string to_string() const;
};

struct VerifyStats {
  std::size_t destinations = 0;
  std::size_t states = 0;  ///< (router, tag, returned) states explored
  std::size_t edges = 0;   ///< admissible transitions explored
};

struct LoopCheck {
  bool loop_free = true;
  std::vector<Cycle> cycles;  ///< at most one counterexample per destination
  VerifyStats stats;
};

/// Every destination address present in any router FIB, ascending.
[[nodiscard]] std::vector<dp::Addr> fib_destinations(
    std::span<const dp::Router> routers);

/// Proves (or refutes) loop-freedom of the installed forwarding state for
/// the given destinations of any router set indexed by RouterId (the
/// incremental verifier feeds it one destination at a time). Exhaustive
/// over states, not over packet runs.
[[nodiscard]] LoopCheck check_loop_freedom(std::span<const dp::Router> routers,
                                           std::span<const dp::Addr> dests);

/// The same over every destination found in the network's FIBs.
[[nodiscard]] LoopCheck check_loop_freedom(const dp::Network& net);

}  // namespace mifo::verify
