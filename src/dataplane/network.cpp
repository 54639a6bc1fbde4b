#include "dataplane/network.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <unordered_map>

#include "common/contracts.hpp"
#include "dataplane/change_log.hpp"
#include "obs/registry.hpp"

namespace mifo::dp {

namespace {
constexpr Addr kHostAddrBit = 0x80000000u;

Addr make_router_addr(RouterId r) { return r.value() + 1; }
Addr make_host_addr(HostId h) { return kHostAddrBit | (h.value() + 1); }
}  // namespace

RouterId Network::add_router(AsId as) {
  const RouterId id(static_cast<std::uint32_t>(routers_.size()));
  routers_.emplace_back(id, as, make_router_addr(id));
  return id;
}

HostId Network::add_host() {
  const HostId id(static_cast<std::uint32_t>(hosts_.size()));
  hosts_.push_back(Host{id, make_host_addr(id), Port{}, false});
  return id;
}

std::pair<PortId, PortId> Network::connect_ebgp(RouterId a, RouterId b,
                                                topo::Rel b_as_is_to_a_as,
                                                Mbps rate, SimTime delay) {
  Router& ra = router(a);
  Router& rb = router(b);
  MIFO_EXPECTS(ra.as() != rb.as());

  Port pa;
  pa.kind = PortKind::Ebgp;
  pa.peer = NodeRef::router(b);
  pa.peer_addr = rb.addr();
  pa.rate = rate;
  pa.delay = delay;
  pa.neighbor_as = rb.as();
  pa.neighbor_rel = b_as_is_to_a_as;

  Port pb = pa;
  pb.peer = NodeRef::router(a);
  pb.peer_addr = ra.addr();
  pb.neighbor_as = ra.as();
  pb.neighbor_rel = topo::reverse(b_as_is_to_a_as);

  const PortId ia = ra.add_port(std::move(pa));
  const PortId ib = rb.add_port(std::move(pb));
  ra.port(ia).peer_port = ib;
  rb.port(ib).peer_port = ia;
  return {ia, ib};
}

std::pair<PortId, PortId> Network::connect_ibgp(RouterId a, RouterId b,
                                                Mbps rate, SimTime delay) {
  Router& ra = router(a);
  Router& rb = router(b);
  MIFO_EXPECTS(ra.as() == rb.as());

  Port pa;
  pa.kind = PortKind::Ibgp;
  pa.peer = NodeRef::router(b);
  pa.peer_addr = rb.addr();
  pa.rate = rate;
  pa.delay = delay;

  Port pb = pa;
  pb.peer = NodeRef::router(a);
  pb.peer_addr = ra.addr();

  const PortId ia = ra.add_port(std::move(pa));
  const PortId ib = rb.add_port(std::move(pb));
  ra.port(ia).peer_port = ib;
  rb.port(ib).peer_port = ia;
  return {ia, ib};
}

PortId Network::connect_host(RouterId r, HostId h, Mbps rate, SimTime delay) {
  Router& rr = router(r);
  Host& hh = host(h);
  MIFO_EXPECTS(!hh.connected);

  Port pr;
  pr.kind = PortKind::Host;
  pr.peer = NodeRef::host(h);
  pr.peer_addr = hh.addr;
  pr.rate = rate;
  pr.delay = delay;
  const PortId ir = rr.add_port(std::move(pr));

  hh.uplink.kind = PortKind::Host;  // host side: single uplink to router
  hh.uplink.peer = NodeRef::router(r);
  hh.uplink.peer_addr = rr.addr();
  hh.uplink.peer_port = ir;
  hh.uplink.rate = rate;
  hh.uplink.delay = delay;
  // Host NIC queue matches the routers': with equal-speed links the sending
  // NIC is often the first bottleneck, and an oversized buffer here would
  // inflate the RTT by orders of magnitude (bufferbloat) and cripple loss
  // recovery.
  hh.uplink.queue_capacity_bytes = 100 * 1000;
  hh.connected = true;

  // Hosts have exactly one uplink and no port table of their own, so there
  // is no meaningful reverse-direction port index. Mark it invalid() rather
  // than 0: a stale 0 would alias the router's (real) port 0 if anything
  // ever traversed it.
  rr.port(ir).peer_port = PortId::invalid();
  return ir;
}

Router& Network::router(RouterId r) {
  MIFO_EXPECTS(r.value() < routers_.size());
  return routers_[r.value()];
}

const Router& Network::router(RouterId r) const {
  MIFO_EXPECTS(r.value() < routers_.size());
  return routers_[r.value()];
}

Host& Network::host(HostId h) {
  MIFO_EXPECTS(h.value() < hosts_.size());
  return hosts_[h.value()];
}

const Host& Network::host(HostId h) const {
  MIFO_EXPECTS(h.value() < hosts_.size());
  return hosts_[h.value()];
}

Addr Network::router_addr(RouterId r) const {
  MIFO_EXPECTS(r.value() < routers_.size());
  return routers_[r.value()].addr();
}

Addr Network::host_addr(HostId h) const {
  MIFO_EXPECTS(h.value() < hosts_.size());
  return hosts_[h.value()].addr;
}

FlowId Network::register_flow(const FlowParams& params) {
  MIFO_EXPECTS(host(params.src).connected);
  MIFO_EXPECTS(host(params.dst).connected);
  MIFO_EXPECTS(params.size > 0);
  MIFO_EXPECTS(params.pkt_size > 0);
  FlowState f;
  f.id = FlowId(flows_.size());
  f.params = params;
  f.src_addr = host_addr(params.src);
  f.dst_addr = host_addr(params.dst);
  const Bytes pkts = (params.size - 1) / params.pkt_size + 1;  // size > 0
  MIFO_EXPECTS(pkts <= std::numeric_limits<std::uint32_t>::max());
  f.total_pkts = static_cast<std::uint32_t>(pkts);
  flows_.push_back(std::move(f));
  return flows_.back().id;
}

FlowId Network::start_flow(const FlowParams& params) {
  const FlowId id = register_flow(params);

  push_event(std::max(params.start, now_),
             {.kind = EvKind::FlowStart,
              .a = static_cast<std::uint32_t>(flows_.size() - 1)});
  return id;
}

FlowState& Network::flow(FlowId id) {
  MIFO_EXPECTS(id.value() < flows_.size());
  return flows_[static_cast<std::size_t>(id.value())];
}

void Network::set_flow_complete_callback(
    std::function<void(Network&, FlowState&)> cb) {
  flow_complete_cb_ = std::move(cb);
}

void Network::add_periodic(SimTime interval,
                           std::function<void(Network&, SimTime)> fn) {
  MIFO_EXPECTS(interval > 0.0);
  periodics_.push_back(PeriodicTask{interval, std::move(fn)});
  push_event(now_ + interval,
             {.kind = EvKind::Periodic,
              .a = static_cast<std::uint32_t>(periodics_.size() - 1)});
}

void Network::enable_delivery_trace(SimTime bucket_width) {
  MIFO_EXPECTS(bucket_width > 0.0);
  bucket_width_ = bucket_width;
  delivery_bytes_.clear();
}

void Network::run_until(SimTime t_end) {
  run_events(t_end);
  now_ = std::max(now_, t_end);
}

void Network::run_to_completion(SimTime t_cap) { run_events(t_cap); }

void Network::run_events(SimTime bound) {
  Event ev;
  while (events_.pop_at_most(bound, now_, ev)) {
    ++events_dispatched_;
    dispatch(ev);
  }
}

void Network::push_event(SimTime t, Event ev) {
  MIFO_EXPECTS(t >= now_);
  events_.push(t, std::move(ev));
}

void Network::dispatch(Event& ev) {
  switch (ev.kind) {
    case EvKind::ArriveRouter:
      router(RouterId(ev.a))
          .handle_packet(*this, std::move(ev.pkt), PortId(ev.b));
      break;
    case EvKind::ArriveHost:
      deliver_to_host(HostId(ev.a), ev.pkt);
      break;
    case EvKind::TxDoneRouter: {
      Port& p = router(RouterId(ev.a)).port(PortId(ev.b));
      p.busy = false;
      if (!p.up) {  // cable pulled mid-transmission: backlog is lost
        flush_down_queue(p);
        break;
      }
      if (!p.queue.empty()) begin_tx(NodeRef::router(RouterId(ev.a)), p, ev.b);
      break;
    }
    case EvKind::TxDoneHost: {
      Port& p = host(HostId(ev.a)).uplink;
      p.busy = false;
      if (!p.up) {
        flush_down_queue(p);
        break;
      }
      if (!p.queue.empty()) begin_tx(NodeRef::host(HostId(ev.a)), p, 0);
      break;
    }
    case EvKind::FlowStart:
      transport::on_start(*this, flows_[ev.a]);
      break;
    case EvKind::FlowTimer: {
      FlowState& f = flows_[ev.a];
      f.timer_pending = false;
      transport::on_timer(*this, f);
      break;
    }
    case EvKind::Periodic: {
      PeriodicTask& task = periodics_[ev.a];
      task.fn(*this, now_);
      push_event(now_ + task.interval, {.kind = EvKind::Periodic, .a = ev.a});
      break;
    }
  }
}

void Network::flush_down_queue(Port& port) {
  port.drops_down += port.queue.size();
  port.queue.clear();
  port.queue_bytes = 0;
}

void Network::attach_change_log(ChangeLog* log) {
  change_log_ = log;
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    routers_[i].fib().attach_change_log(log,
                                        RouterId(static_cast<std::uint32_t>(i)));
  }
}

void Network::set_port_up(RouterId r, PortId port, bool up) {
  Port& p = router(r).port(port);
  if (p.up == up) return;
  p.up = up;
  if (change_log_ != nullptr) change_log_->note_port(r, port);
  if (!up) {
    // The in-flight packet (busy tx) is already on the wire and will arrive;
    // everything still queued behind it is discarded now so the drops land
    // in the outage interval.
    flush_down_queue(p);
  } else if (!p.busy && !p.queue.empty()) {
    begin_tx(NodeRef::router(r), p, port.value());
  }
}

void Network::begin_tx(NodeRef node, Port& port, std::uint32_t port_index) {
  MIFO_EXPECTS(!port.busy);
  MIFO_EXPECTS(!port.queue.empty());
  Packet p = std::move(port.queue.front());
  port.queue.pop_front();
  port.queue_bytes -= p.wire_bytes();
  port.busy = true;
  port.bytes_sent_total += p.wire_bytes();
  ++port.pkts_sent_total;

  const SimTime tx = transfer_seconds(p.wire_bytes(), port.rate);

  push_event(now_ + tx, {.kind = node.is_router() ? EvKind::TxDoneRouter
                                                 : EvKind::TxDoneHost,
                         .a = node.id,
                         .b = port_index});

  const SimTime arrive_t = now_ + tx + port.delay;
  const bool to_router = port.peer.is_router();
  const std::uint32_t in_port = to_router ? port.peer_port.value() : 0;

  // Shard mode: an arrival owned by another shard leaves this event queue
  // entirely and crosses over the shard pair's handoff buffer instead.
  // tx > 0 guarantees arrive_t strictly exceeds the conservative window
  // horizon, so the receiving shard can never see it in its past.
  if (router_shard_ != nullptr) {
    const std::uint32_t owner = to_router ? (*router_shard_)[port.peer.id]
                                          : (*host_shard_)[port.peer.id];
    if (owner != self_shard_) {
      remote_sink_({.t = arrive_t,
                    .to_router = to_router,
                    .from_router = node.is_router(),
                    .node = port.peer.id,
                    .port = in_port,
                    .from_node = node.id,
                    .from_port = port_index,
                    .pkt = std::move(p)});
      return;
    }
  }

  push_event(arrive_t,
             {.kind = to_router ? EvKind::ArriveRouter : EvKind::ArriveHost,
              .a = port.peer.id,
              .b = in_port,
              .pkt = std::move(p)});
}

SimTime Network::next_event_time() const { return events_.min_time(); }

void Network::enable_shard_mode(std::uint32_t self,
                                const std::vector<std::uint32_t>* router_shard,
                                const std::vector<std::uint32_t>* host_shard,
                                std::function<void(RemoteEvent&&)> sink) {
  MIFO_EXPECTS(router_shard != nullptr && host_shard != nullptr);
  MIFO_EXPECTS(sink != nullptr);
  self_shard_ = self;
  router_shard_ = router_shard;
  host_shard_ = host_shard;
  remote_sink_ = std::move(sink);
}

void Network::inject_remote(RemoteEvent&& rev) {
  push_event(rev.t, {.kind = rev.to_router ? EvKind::ArriveRouter
                                           : EvKind::ArriveHost,
                     .a = rev.node,
                     .b = rev.port,
                     .pkt = std::move(rev.pkt)});
}

void Network::enqueue_on(NodeRef node, Port& port, std::uint32_t port_index,
                         Packet p) {
  if (!port.up) {
    ++port.drops_down;
    return;
  }
  if (!port.can_accept(p)) {
    ++port.drops_overflow;
    return;
  }
  port.queue_bytes += p.wire_bytes();
  port.queue.push_back(std::move(p));
  if (!port.busy) begin_tx(node, port, port_index);
}

void Network::transmit_router(RouterId r, PortId port, Packet p) {
  Router& rr = router(r);
  enqueue_on(NodeRef::router(r), rr.port(port), port.value(), std::move(p));
}

void Network::transmit_host(HostId h, Packet p) {
  Host& hh = host(h);
  MIFO_EXPECTS(hh.connected);
  ++injected_pkts_;
  enqueue_on(NodeRef::host(h), hh.uplink, 0, std::move(p));
}

void Network::arm_flow_timer(FlowState& f) {
  if (f.timer_pending || f.done) return;
  f.timer_pending = true;
  push_event(now_ + f.rto,
             {.kind = EvKind::FlowTimer,
              .a = static_cast<std::uint32_t>(f.id.value())});
}

void Network::note_delivery(const FlowState& f, std::uint32_t pkts) {
  if (bucket_width_ <= 0.0) return;
  const auto idx = static_cast<std::size_t>(now_ / bucket_width_);
  if (delivery_bytes_.size() <= idx) delivery_bytes_.resize(idx + 1, 0);
  delivery_bytes_[idx] += static_cast<Bytes>(pkts) * f.params.pkt_size;
}

void Network::note_completion(FlowState& f) {
  if (flow_complete_cb_) flow_complete_cb_(*this, f);
}

void Network::deliver_to_host(HostId h, const Packet& p) {
  Host& hh = host(h);
  if (p.dst != hh.addr) {  // mis-delivered; drop (accounted, not silent)
    ++misdelivered_pkts_;
    return;
  }
  // Raw packets injected by tests/tools carry flow ids with no transport
  // state; they end here.
  if (p.flow.value() >= flows_.size()) {
    ++stale_flow_pkts_;
    return;
  }
  ++delivered_pkts_;
  FlowState& f = flow(p.flow);
  if (p.kind == PacketKind::Data) {
    const std::uint32_t delivered = transport::on_data(*this, f, p);
    if (delivered > 0) note_delivery(f, delivered);
  } else {
    transport::on_ack(*this, f, p);
  }
}

void Network::enable_link_sampling(SimTime interval) {
  MIFO_EXPECTS(interval > 0.0);
  // Byte-counter snapshots live in the closure (keyed router<<32|port), so
  // sampling never perturbs the LinkMonitor's own windows.
  auto snapshots =
      std::make_shared<std::unordered_map<std::uint64_t, std::uint64_t>>();
  add_periodic(interval, [snapshots, interval](Network& net, SimTime now) {
    for (std::size_t r = 0; r < net.routers_.size(); ++r) {
      Router& router = net.routers_[r];
      for (std::size_t pi = 0; pi < router.num_ports(); ++pi) {
        const Port& port = router.port(PortId(static_cast<std::uint32_t>(pi)));
        if (port.kind != PortKind::Ebgp) continue;
        const std::uint64_t key =
            (static_cast<std::uint64_t>(r) << 32) | pi;
        std::uint64_t& prev = (*snapshots)[key];
        const Bytes delta = port.bytes_sent_total - prev;
        prev = port.bytes_sent_total;
        const Mbps rate = to_megabits(delta) / interval;
        obs::LinkSample s;
        s.t = now;
        s.router = static_cast<std::uint32_t>(r);
        s.port = static_cast<std::uint32_t>(pi);
        s.utilization = port.rate > 0.0 ? std::min(1.0, rate / port.rate) : 0.0;
        s.spare_mbps = std::max(0.0, port.rate - rate);
        s.queue_ratio = port.queue_ratio();
        net.link_samples_.push_back(s);
      }
    }
  });
}

std::vector<std::pair<std::string, std::uint64_t>> Network::drop_breakdown()
    const {
  const RouterCounters total = total_counters();
  std::uint64_t overflow = 0;
  std::uint64_t down = 0;
  for (const auto& r : routers_) {
    for (std::size_t pi = 0; pi < r.num_ports(); ++pi) {
      const Port& p = r.port(PortId(static_cast<std::uint32_t>(pi)));
      overflow += p.drops_overflow;
      down += p.drops_down;
    }
  }
  for (const auto& h : hosts_) {
    overflow += h.uplink.drops_overflow;
    down += h.uplink.drops_down;
  }
  return {
      {"valley", total.valley_drops},   {"no_route", total.no_route_drops},
      {"ttl", total.ttl_drops},         {"queue_overflow", overflow},
      {"link_down", down},              {"misdelivered", misdelivered_pkts_},
      {"stale_flow", stale_flow_pkts_},
  };
}

std::uint64_t Network::queued_pkts() const {
  std::uint64_t n = 0;
  for (const auto& r : routers_) {
    for (std::size_t pi = 0; pi < r.num_ports(); ++pi) {
      n += r.port(PortId(static_cast<std::uint32_t>(pi))).queue.size();
    }
  }
  for (const auto& h : hosts_) n += h.uplink.queue.size();
  return n;
}

void Network::publish_metrics(obs::Registry& reg,
                              const std::string& labels) const {
  // Exactly-once per (registry, labels): re-publishing overwrites the same
  // shard (set() is idempotent) instead of stacking a second one, so a
  // snapshot racing a later publish cannot double-count this network.
  obs::Registry::Shard& shard = reg.publish_shard(this, labels);
  const RouterCounters c = total_counters();
  const auto set = [&](const char* name, std::uint64_t v) {
    shard.set(reg.counter(name, labels), static_cast<double>(v));
  };
  set("dp.forwarded", c.forwarded);
  set("dp.deflected", c.deflected);
  set("dp.encapsulated", c.encapsulated);
  set("dp.returned_detected", c.returned_detected);
  set("dp.flow_switches", c.flow_switches);
  set("dp.injected", injected_pkts_);
  set("dp.delivered", delivered_pkts_);
  set("dp.events", events_dispatched_);
  for (const auto& [reason, count] : drop_breakdown()) {
    shard.set(reg.counter("dp.drops", labels.empty()
                                          ? "reason=" + reason
                                          : labels + ",reason=" + reason),
              static_cast<double>(count));
  }
  std::uint64_t bytes = 0;
  std::uint64_t pkts = 0;
  for (const auto& r : routers_) {
    for (std::size_t pi = 0; pi < r.num_ports(); ++pi) {
      const Port& p = r.port(PortId(static_cast<std::uint32_t>(pi)));
      bytes += p.bytes_sent_total;
      pkts += p.pkts_sent_total;
    }
  }
  set("dp.port_bytes_sent", bytes);
  set("dp.port_pkts_sent", pkts);
}

RouterCounters Network::total_counters() const {
  RouterCounters total;
  for (const auto& r : routers_) {
    const auto& c = r.counters();
    total.forwarded += c.forwarded;
    total.deflected += c.deflected;
    total.encapsulated += c.encapsulated;
    total.returned_detected += c.returned_detected;
    total.valley_drops += c.valley_drops;
    total.no_route_drops += c.no_route_drops;
    total.ttl_drops += c.ttl_drops;
    total.flow_switches += c.flow_switches;
  }
  return total;
}

}  // namespace mifo::dp
