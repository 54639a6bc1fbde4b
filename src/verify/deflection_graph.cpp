#include "verify/deflection_graph.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "common/contracts.hpp"
#include "topo/relationship.hpp"
#include "verify/state_graph.hpp"

namespace mifo::verify {

namespace detail {

/// All transitions a packet in state (r, tag, returned) could take under
/// Algorithm 1 as implemented by dp::Router::handle_packet. Congestion and
/// flow pinning are abstracted: a MIFO-enabled router may always deflect.
void successors(std::span<const dp::Router> routers, dp::Addr dst,
                std::uint32_t r, bool tag, bool returned,
                std::vector<Succ>& out) {
  const dp::Router& router = routers[r];
  const auto fe = router.fib().lookup(dst);
  if (!fe) return;  // line 4: no route -> drop, terminal

  const auto alt_edge = [&]() {
    if (!fe->alt_port.valid()) return;
    const dp::Port& alt = router.port(fe->alt_port);
    if (alt.kind == dp::PortKind::Host || !alt.peer.is_router()) return;
    const std::uint32_t s = alt.peer.id;
    if (alt.kind == dp::PortKind::Ibgp) {
      // Lines 12–15: IP-in-IP towards the iBGP peer. The peer decaps and
      // applies the line-11 return test: sender == its default next hop.
      // (Full-mesh iBGP: the port peer IS the encapsulation target.)
      bool ret2 = false;
      if (const auto fs = routers[s].fib().lookup(dst)) {
        const dp::Port& so = routers[s].port(fs->out_port);
        ret2 = so.peer_addr == router.addr();
      }
      out.push_back(
          {state_id(s, tag, ret2), Hop{RouterId(r), RouterId(s),
                                       HopKind::AltIbgp, tag}});
      return;
    }
    // Lines 16–20: eBGP alternative, gated by Eq. 3 unless the ablation
    // knob disabled the Tag-Check.
    if (router.config().enforce_tag_check &&
        !topo::check_bit(tag, alt.neighbor_rel)) {
      return;  // line 20: inadmissible -> drop (or stay on default)
    }
    // Lines 5–10 at the next AS entering point: the tag is rewritten from
    // the ingress port's relationship (what our AS is to the peer's AS).
    const dp::Port& ingress = routers[s].port(alt.peer_port);
    const bool tag2 = topo::tag_bit(ingress.neighbor_rel);
    out.push_back({state_id(s, tag2, false),
                   Hop{RouterId(r), RouterId(s), HopKind::AltEbgp, tag}});
  };

  if (returned) {
    // Line 11, returned packet: the default would cycle, so the alternative
    // is forced; with none admissible the packet drops (terminal).
    alt_edge();
    return;
  }

  const dp::Port& def = router.port(fe->out_port);
  if (def.kind == dp::PortKind::Host) return;  // delivery, terminal
  if (def.peer.is_router()) {
    const std::uint32_t s = def.peer.id;
    bool tag2 = tag;
    if (def.kind == dp::PortKind::Ebgp) {
      const dp::Port& ingress = routers[s].port(def.peer_port);
      tag2 = topo::tag_bit(ingress.neighbor_rel);
    }
    out.push_back({state_id(s, tag2, false),
                   Hop{RouterId(r), RouterId(s), HopKind::Default, tag}});
  }
  // Congestion-triggered deflection (line 11's second disjunct) is possible
  // whenever MIFO is on and the default egress is not the host port.
  if (router.config().mifo_enabled) alt_edge();
}

/// Ingress states packets can genuinely enter the network in: host-origin
/// traffic (tag = 1) where a host or customer attaches, plus one state per
/// eBGP ingress port with the tag that port's Tag-step would write.
std::vector<std::uint32_t> entry_states(std::span<const dp::Router> routers,
                                        dp::Addr dst) {
  std::vector<std::uint32_t> entries;
  for (std::uint32_t r = 0; r < routers.size(); ++r) {
    if (!routers[r].fib().contains(dst)) continue;
    for (const dp::Port& p : routers[r].ports()) {
      if (p.kind == dp::PortKind::Host) {
        entries.push_back(state_id(r, true, false));
      } else if (p.kind == dp::PortKind::Ebgp) {
        entries.push_back(state_id(r, topo::tag_bit(p.neighbor_rel), false));
      }
    }
  }
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  return entries;
}

std::vector<std::uint32_t> host_entry_states(
    std::span<const dp::Router> routers, dp::Addr dst) {
  std::vector<std::uint32_t> entries;
  for (std::uint32_t r = 0; r < routers.size(); ++r) {
    if (!routers[r].fib().contains(dst)) continue;
    for (const dp::Port& p : routers[r].ports()) {
      if (p.kind == dp::PortKind::Host) {
        entries.push_back(state_id(r, true, false));
        break;
      }
    }
  }
  return entries;  // router-ascending, unique by construction
}

}  // namespace detail

namespace {

using detail::entry_states;
using detail::state_id;
using detail::state_router;
using detail::Succ;
using detail::successors;

enum : std::uint8_t { kWhite = 0, kGray = 1, kBlack = 2 };

struct Frame {
  std::uint32_t state = 0;
  Hop entered_by;  ///< hop that led here (unused for the root frame)
  std::vector<Succ> succs;
  std::size_t next = 0;
};

}  // namespace

const char* to_string(HopKind k) {
  switch (k) {
    case HopKind::Default:
      return "default";
    case HopKind::AltEbgp:
      return "alt-ebgp";
    case HopKind::AltIbgp:
      return "alt-ibgp";
  }
  return "?";
}

void detail::write_walk(std::ostream& os, std::span<const Hop> hops) {
  for (const Hop& h : hops) {
    os << " r" << h.from.value() << " -[" << verify::to_string(h.kind)
       << " tag=" << (h.tag ? 1 : 0) << "]->";
  }
  if (!hops.empty()) os << " r" << hops.back().to.value();
}

std::string Cycle::to_string() const {
  std::ostringstream os;
  os << "dst=" << dst << " cycle:";
  detail::write_walk(os, hops);
  return os.str();
}

std::vector<dp::Addr> fib_destinations(std::span<const dp::Router> routers) {
  std::unordered_set<dp::Addr> seen;
  for (const dp::Router& r : routers) {
    for (const auto& [dst, fe] : r.fib()) seen.insert(dst);
  }
  std::vector<dp::Addr> dests(seen.begin(), seen.end());
  std::sort(dests.begin(), dests.end());
  return dests;
}

LoopCheck check_loop_freedom(std::span<const dp::Router> routers,
                             std::span<const dp::Addr> dests) {
  LoopCheck result;
  result.stats.destinations = dests.size();
  const std::size_t num_states = routers.size() * 4;
  std::vector<std::uint8_t> color(num_states);
  std::vector<Frame> stack;

  for (const dp::Addr dst : dests) {
    std::fill(color.begin(), color.end(), kWhite);
    bool cycle_found = false;

    for (const std::uint32_t entry : entry_states(routers, dst)) {
      if (cycle_found || color[entry] != kWhite) continue;
      color[entry] = kGray;
      stack.clear();
      stack.push_back(Frame{entry, Hop{}, {}, 0});
      successors(routers, dst, state_router(entry), (entry & 2u) != 0,
                 (entry & 1u) != 0, stack.back().succs);
      result.stats.edges += stack.back().succs.size();
      ++result.stats.states;

      while (!stack.empty() && !cycle_found) {
        Frame& f = stack.back();
        if (f.next == f.succs.size()) {
          color[f.state] = kBlack;
          stack.pop_back();
          continue;
        }
        const Succ succ = f.succs[f.next++];
        if (color[succ.state] == kGray) {
          // Back edge: the gray state sits on the DFS stack. The hops from
          // its frame down to here, closed by `succ.hop`, form a concrete
          // admissible cycle.
          Cycle cycle;
          cycle.dst = dst;
          std::size_t j = stack.size();
          while (j > 0 && stack[j - 1].state != succ.state) --j;
          MIFO_ASSERT(j > 0);
          for (std::size_t k = j; k < stack.size(); ++k) {
            cycle.hops.push_back(stack[k].entered_by);
          }
          cycle.hops.push_back(succ.hop);
          result.cycles.push_back(std::move(cycle));
          result.loop_free = false;
          cycle_found = true;  // one counterexample per destination
          break;
        }
        if (color[succ.state] == kWhite) {
          color[succ.state] = kGray;
          stack.push_back(Frame{succ.state, succ.hop, {}, 0});
          successors(routers, dst, state_router(succ.state),
                     (succ.state & 2u) != 0, (succ.state & 1u) != 0,
                     stack.back().succs);
          result.stats.edges += stack.back().succs.size();
          ++result.stats.states;
        }
      }
    }
  }
  return result;
}

LoopCheck check_loop_freedom(const dp::Network& net) {
  return check_loop_freedom(net.routers(), fib_destinations(net.routers()));
}

}  // namespace mifo::verify
