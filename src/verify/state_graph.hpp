// Shared per-destination deflection-graph structure (verify:: internals).
//
// The loop prover, the valley-freedom prover, the reachability/blackhole
// analysis and the incremental engine all walk the SAME state graph — one
// (router, tag, returned) node set with one successor relation mirroring
// Algorithm 1. Defining it once here (implemented in deflection_graph.cpp,
// next to the loop prover) guarantees the analyses can never disagree about
// what an admissible transition is.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <span>
#include <vector>

#include "dataplane/router.hpp"
#include "verify/deflection_graph.hpp"

namespace mifo::verify::detail {

/// State encoding: (router, tag, returned) -> router*4 + tag*2 + returned.
[[nodiscard]] constexpr std::uint32_t state_id(std::uint32_t router, bool tag,
                                               bool returned) {
  return router * 4 + (tag ? 2u : 0u) + (returned ? 1u : 0u);
}
[[nodiscard]] constexpr std::uint32_t state_router(std::uint32_t s) {
  return s / 4;
}
[[nodiscard]] constexpr bool state_tag(std::uint32_t s) {
  return (s & 2u) != 0;
}
[[nodiscard]] constexpr bool state_returned(std::uint32_t s) {
  return (s & 1u) != 0;
}

struct Succ {
  std::uint32_t state = 0;
  Hop hop;
};

/// All transitions a packet in state (r, tag, returned) could take under
/// Algorithm 1 as implemented by dp::Router::handle_packet. Congestion and
/// flow pinning are abstracted: a MIFO-enabled router may always deflect.
/// Link state (Port::up) is deliberately not consulted — see the dirty-set
/// soundness argument in incremental.hpp.
void successors(std::span<const dp::Router> routers, dp::Addr dst,
                std::uint32_t r, bool tag, bool returned,
                std::vector<Succ>& out);

/// Ingress states packets can genuinely enter the network in: host-origin
/// traffic (tag = 1) where a host attaches, plus one state per eBGP ingress
/// port with the tag that port's Tag-step would write. The loop prover's
/// entry set (sound over-approximation of traffic sources).
[[nodiscard]] std::vector<std::uint32_t> entry_states(
    std::span<const dp::Router> routers, dp::Addr dst);

/// Host-origin entry states only. The valley prover starts here: the
/// emulation is closed (every packet originates at an attached host), and
/// the hypothetical eBGP-ingress states above would manufacture paths no
/// neighbor would actually send — e.g. a provider handing us traffic we can
/// only route back up — which are valleys of the model, not of the network.
[[nodiscard]] std::vector<std::uint32_t> host_entry_states(
    std::span<const dp::Router> routers, dp::Addr dst);

/// Writes a hop walk as " r1 -[kind tag=t]-> r2 -[...]-> r3": every hop's
/// source and edge, then the last hop's target. Writes nothing for an
/// empty walk. Cycles, valleys and blackholes all render through it.
void write_walk(std::ostream& os, std::span<const Hop> hops);

/// Breadth-first search over one destination's deflection graph that
/// remembers how it reached every state, so any visited state yields a
/// witness walk back to an entry state. The valley prover and the blackhole
/// analysis are this one search with a different test per state.
class WitnessSearch {
 public:
  explicit WitnessSearch(std::size_t num_routers)
      : prev_(num_routers * 4), prev_hop_(num_routers * 4) {}

  /// Searches `dst`'s states reachable from `entries`. Each dequeued state
  /// is expanded, counted in `stats`, and handed to `visit(state, succs)`.
  /// The search then enqueues the successors it has not seen yet, unless
  /// `visit` returned false, which ends it.
  template <typename Visit>
  void run(std::span<const dp::Router> routers, dp::Addr dst,
           std::span<const std::uint32_t> entries, VerifyStats& stats,
           Visit&& visit) {
    std::fill(prev_.begin(), prev_.end(), kUnseen);
    queue_.clear();
    for (const std::uint32_t entry : entries) {
      prev_[entry] = kEntry;
      queue_.push_back(entry);
    }
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const std::uint32_t s = queue_[head];
      succs_.clear();
      successors(routers, dst, state_router(s), state_tag(s),
                 state_returned(s), succs_);
      ++stats.states;
      stats.edges += succs_.size();
      if (!visit(s, std::span<const Succ>(succs_))) return;
      for (const Succ& succ : succs_) {
        if (prev_[succ.state] != kUnseen) continue;
        prev_[succ.state] = s;
        prev_hop_[succ.state] = succ.hop;
        queue_.push_back(succ.state);
      }
    }
  }

  /// The hops from an entry state to `s`, a state the last run reached
  /// (empty when `s` is itself an entry).
  [[nodiscard]] std::vector<Hop> walk_to(std::uint32_t s) const {
    std::vector<Hop> hops;
    for (std::uint32_t at = s; prev_[at] != kEntry; at = prev_[at]) {
      hops.push_back(prev_hop_[at]);
    }
    return {hops.rbegin(), hops.rend()};
  }

 private:
  static constexpr std::uint32_t kUnseen =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint32_t kEntry = kUnseen - 1;

  std::vector<std::uint32_t> prev_;  ///< predecessor state, or a sentinel
  std::vector<Hop> prev_hop_;        ///< the hop that reached each state
  std::vector<std::uint32_t> queue_;
  std::vector<Succ> succs_;
};

}  // namespace mifo::verify::detail
