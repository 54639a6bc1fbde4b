#include "dataplane/router.hpp"

#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "dataplane/network.hpp"

namespace mifo::dp {

namespace {
/// Pin key: the paper pins path choices at flow granularity (five-tuple
/// hashing, Section II-A); direction matters, so the destination joins the
/// flow id.
std::uint64_t pin_key(const Packet& p) {
  return hash_combine(p.flow.value(), p.dst);
}

/// Records one packet-scoped trace event if `tr` wants the packet's flow.
void record_trace(obs::Tracer& tr, const Network& net, RouterId router,
                  const Packet& p, obs::TraceKind kind, PortId port,
                  topo::Rel rel) {
  if (!tr.wants(p.flow.value())) return;
  obs::TraceEvent ev;
  ev.t = net.now();
  ev.kind = kind;
  ev.router = router.value();
  ev.flow = p.flow.value();
  ev.dst = p.dst;
  ev.tag = p.mifo_tag;
  if (port.valid()) ev.port = port.value();
  ev.rel = rel;
  // Flight-recorder context carried by the packet from its injection point
  // (possibly on another shard); the recording tracer adds shard/epoch/seq.
  ev.origin_shard = p.origin_shard;
  ev.inject_epoch = p.inject_epoch;
  tr.record(ev);
}

/// Algorithm 1's trace hook. `port` and `rel` fill the kind-specific
/// fields; left out, they keep their TraceEvent defaults. With tracing off
/// a hook costs one pointer test.
inline void trace(obs::Tracer* tr, const Network& net, RouterId router,
                  const Packet& p, obs::TraceKind kind,
                  PortId port = PortId::invalid(),
                  topo::Rel rel = topo::Rel::Peer) {
  if (tr != nullptr) record_trace(*tr, net, router, p, kind, port, rel);
}
}  // namespace

Port& Router::port(PortId p) {
  MIFO_EXPECTS(p.value() < ports_.size());
  return ports_[p.value()];
}

const Port& Router::port(PortId p) const {
  MIFO_EXPECTS(p.value() < ports_.size());
  return ports_[p.value()];
}

PortId Router::add_port(Port port) {
  ports_.push_back(std::move(port));
  return PortId(static_cast<std::uint32_t>(ports_.size() - 1));
}

void Router::emit(Network& net, PortId out, Packet p) {
  ++counters_.forwarded;
  net.transmit_router(id_, out, std::move(p));
}

// Algorithm 1 — the MIFO forwarding engine. Tracing (tr) is opt-in and
// costs one pointer test per hook when disabled.
void Router::handle_packet(Network& net, Packet p, PortId in_port) {
  obs::Tracer* const tr = net.tracer();
  if (p.ttl == 0) {
    ++counters_.ttl_drops;
    trace(tr, net, id_, p, obs::TraceKind::DropTtl);
    return;
  }
  --p.ttl;

  // Lines 1–3: IP-in-IP handling. The outer header names an iBGP peer; if
  // it is not us, forward on the outer destination (only exercised by
  // non-full-mesh intra topologies whose FIBs carry router loopbacks).
  Addr sender = kInvalidAddr;
  if (p.encapsulated) {
    if (p.outer_dst == addr_) {
      sender = decap(p);
      trace(tr, net, id_, p, obs::TraceKind::Decap);
    } else {
      const auto outer = fib_.lookup(p.outer_dst);
      if (!outer) {
        ++counters_.no_route_drops;
        trace(tr, net, id_, p, obs::TraceKind::DropNoRoute);
        return;
      }
      emit(net, outer->out_port, std::move(p));
      return;
    }
  }

  // Line 4: FIB lookup yields the default and alternative output ports.
  const auto fe = fib_.lookup(p.dst);
  if (!fe) {
    ++counters_.no_route_drops;
    trace(tr, net, id_, p, obs::TraceKind::DropNoRoute);
    return;
  }
  const PortId iout = fe->out_port;
  const PortId ialt = fe->alt_port;

  // Lines 5–10: at the AS entering point, (re)write the valley-free tag.
  // Host-originated traffic is tagged 1 — the source AS may use any RIB
  // route, exactly like traffic arriving from a customer.
  if (in_port.valid()) {
    const Port& pin = port(in_port);
    if (pin.kind == PortKind::Ebgp) {
      p.mifo_tag = topo::tag_bit(pin.neighbor_rel);
      trace(tr, net, id_, p, obs::TraceKind::TagSet, PortId::invalid(),
            pin.neighbor_rel);
    } else if (pin.kind == PortKind::Host) {
      p.mifo_tag = true;
      // Host traffic behaves like customer traffic.
      trace(tr, net, id_, p, obs::TraceKind::TagSet, PortId::invalid(),
            topo::Rel::Customer);
    }
  }

  Port& out = port(iout);

  // Line 11, first disjunct realized as a *returned packet* test: the iBGP
  // sender that deflected this packet to us is our default next hop —
  // forwarding back would cycle (Fig. 2(b)). (The pseudocode's
  // `s = GetNextHop(I_alt)` is read as `GetNextHop(I_out)`, matching the
  // prose in Section III-B.)
  const bool returned =
      sender != kInvalidAddr && out.peer_addr == sender;
  if (returned) {
    ++counters_.returned_detected;
    trace(tr, net, id_, p, obs::TraceKind::ReturnDetected, iout);
  }

  bool use_alt = returned;

  // Line 11, second disjunct: congestion-triggered deflection, pinned per
  // flow to avoid reordering. Only at MIFO-enabled routers.
  if (!use_alt && config_.mifo_enabled && ialt.valid() &&
      out.kind != PortKind::Host) {
    const std::uint64_t key = pin_key(p);
    const auto it = pins_.find(key);
    if (it != pins_.end()) {
      it->second.last_seen = net.now();
      use_alt = it->second.use_alt;
    } else if (out.queue_ratio() >= config_.congest_threshold &&
               net.now() - out.last_pin_time >= config_.pin_cooldown) {
      const Port& alt = port(ialt);
      const bool admissible = alt.kind == PortKind::Ibgp ||
                              !config_.enforce_tag_check ||
                              topo::check_bit(p.mifo_tag, alt.neighbor_rel);
      if (admissible) {
        pins_.emplace(key, FlowPin{true, net.now()});
        out.last_pin_time = net.now();
        trace(tr, net, id_, p, obs::TraceKind::PinCreated, ialt);
        ++counters_.flow_switches;
        use_alt = true;
      } else if (config_.drop_on_congested_no_alt) {
        ++counters_.valley_drops;  // faithful line-20 behaviour
        trace(tr, net, id_, p, obs::TraceKind::TagCheckFail, ialt,
              alt.neighbor_rel);
        trace(tr, net, id_, p, obs::TraceKind::DropValley);
        return;
      }
    }
  }

  if (use_alt && ialt.valid()) {
    Port& alt = port(ialt);
    if (alt.kind == PortKind::Ibgp) {
      // Lines 12–15: hand the packet to the iBGP peer holding the
      // alternative path, wrapped so the peer can identify the sender.
      MIFO_ASSERT(!p.encapsulated);
      encap(p, addr_, alt.peer_addr);
      ++counters_.encapsulated;
      ++counters_.deflected;
      trace(tr, net, id_, p, obs::TraceKind::Encap, ialt);
      trace(tr, net, id_, p, obs::TraceKind::Deflect, ialt);
      emit(net, ialt, std::move(p));
      return;
    }
    // Lines 16–20: eBGP alternative — the Tag-Check valley-free gate.
    if (!config_.enforce_tag_check ||
        topo::check_bit(p.mifo_tag, alt.neighbor_rel)) {
      ++counters_.deflected;
      trace(tr, net, id_, p, obs::TraceKind::TagCheckPass, ialt,
            alt.neighbor_rel);
      trace(tr, net, id_, p, obs::TraceKind::Deflect, ialt);
      emit(net, ialt, std::move(p));
      return;
    }
    if (returned || config_.drop_on_congested_no_alt) {
      // Returned packets must not go back to the default (cycle); without
      // an admissible alternative the packet is dropped (line 20).
      ++counters_.valley_drops;
      trace(tr, net, id_, p, obs::TraceKind::TagCheckFail, ialt,
            alt.neighbor_rel);
      trace(tr, net, id_, p, obs::TraceKind::DropValley);
      return;
    }
    // Otherwise fall through to the default path (flow was never pinned).
  } else if (use_alt && !ialt.valid()) {
    if (returned) {
      // Returned packet but the daemon has since cleared the alternative:
      // dropping beats cycling between iBGP peers.
      ++counters_.valley_drops;
      trace(tr, net, id_, p, obs::TraceKind::DropValley);
      return;
    }
    // A pinned flow whose alternative vanished resumes the default path.
    pins_.erase(pin_key(p));
  }

  // Line 22: default path.
  trace(tr, net, id_, p, obs::TraceKind::Forward, iout);
  emit(net, iout, std::move(p));
}

void Router::reevaluate_flows(
    const Network& net,
    const std::function<double(PortId)>& port_utilization) {
  const SimTime now = net.now();
  for (auto it = pins_.begin(); it != pins_.end();) {
    const bool idle = now - it->second.last_seen > config_.pin_idle_timeout;
    if (idle) {
      it = pins_.erase(it);
      continue;
    }
    ++it;
  }
  // Hysteresis: release pins (flows resume their defaults) only when every
  // default egress is genuinely underutilized. Pin entries do not record
  // the destination, so release is all-or-nothing per router — matching the
  // daemon's AS-level view of its egress links.
  bool all_drained = true;
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    const Port& port = ports_[i];
    if (port.kind != PortKind::Ebgp) continue;
    const double util =
        port_utilization
            ? port_utilization(PortId(static_cast<std::uint32_t>(i)))
            : port.queue_ratio();
    if (util >= config_.low_watermark) {
      all_drained = false;
      break;
    }
  }
  if (all_drained && !pins_.empty()) {
    if (obs::Tracer* tr = net.tracer()) {
      obs::TraceEvent ev;
      ev.t = now;
      ev.kind = obs::TraceKind::PinsReleased;
      ev.router = id_.value();
      ev.value = static_cast<double>(pins_.size());
      tr->record(ev);
    }
    counters_.flow_switches += pins_.size();
    pins_.clear();
  }
}

std::size_t Router::pinned_alt_flows() const {
  std::size_t n = 0;
  for (const auto& [key, pin] : pins_) n += pin.use_alt ? 1 : 0;
  return n;
}

}  // namespace mifo::dp
