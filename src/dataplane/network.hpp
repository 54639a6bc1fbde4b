// Event-driven packet network: routers, hosts, links, flows and the event
// loop gluing them together. This is the NS-3/testbed substitute the
// Fig. 11/12 experiments and the Algorithm-1 unit tests run on.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "dataplane/event_queue.hpp"
#include "dataplane/packet.hpp"
#include "dataplane/port.hpp"
#include "dataplane/router.hpp"
#include "dataplane/transport.hpp"
#include "obs/registry.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace mifo::dp {

struct ChangeLog;

/// A packet arrival whose destination node lives on another shard of a
/// ShardedNetwork (src/dataplane/shard.hpp). Produced by `begin_tx` when
/// shard mode is enabled; carried in the shard pair's handoff buffer and
/// re-injected into the owning shard's event queue at the next epoch
/// barrier. The (from_node, from_port) pair keys the deterministic merge
/// order: per-port transmissions are serialized (tx time > 0), so
/// (t, from_node, from_port) is unique.
struct RemoteEvent {
  SimTime t = 0.0;
  bool to_router = true;
  bool from_router = true;
  std::uint32_t node = 0;       ///< destination router/host id
  std::uint32_t port = 0;       ///< destination ingress port (routers only)
  std::uint32_t from_node = 0;  ///< transmitting node id
  std::uint32_t from_port = 0;  ///< transmitting port index
  Packet pkt;
};

struct Host {
  HostId id;
  Addr addr = kInvalidAddr;
  Port uplink;
  bool connected = false;
};

class Network {
 public:
  Network() = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- topology construction ------------------------------------------------
  RouterId add_router(AsId as);
  HostId add_host();

  /// Inter-AS (eBGP) link; `b_as_is_to_a_as` is the business relationship of
  /// b's AS as seen from a's AS (topo::Rel::Customer = b's AS pays a's).
  std::pair<PortId, PortId> connect_ebgp(RouterId a, RouterId b,
                                         topo::Rel b_as_is_to_a_as,
                                         Mbps rate = kGigabit,
                                         SimTime delay = 50e-6);

  /// Intra-AS (iBGP full-mesh) link. Both routers must share an AS.
  std::pair<PortId, PortId> connect_ibgp(RouterId a, RouterId b,
                                         Mbps rate = 10 * kGigabit,
                                         SimTime delay = 20e-6);

  /// Access link. Returns the router-side port id (host side is implicit).
  PortId connect_host(RouterId r, HostId h, Mbps rate = kGigabit,
                      SimTime delay = 20e-6);

  // --- accessors --------------------------------------------------------------
  [[nodiscard]] std::size_t num_routers() const { return routers_.size(); }
  [[nodiscard]] std::size_t num_hosts() const { return hosts_.size(); }
  /// Read-only view of every router, in RouterId order (verifier hook).
  [[nodiscard]] std::span<const Router> routers() const { return routers_; }
  [[nodiscard]] Router& router(RouterId r);
  [[nodiscard]] const Router& router(RouterId r) const;
  [[nodiscard]] Host& host(HostId h);
  [[nodiscard]] const Host& host(HostId h) const;
  [[nodiscard]] Addr router_addr(RouterId r) const;
  [[nodiscard]] Addr host_addr(HostId h) const;
  [[nodiscard]] SimTime now() const { return now_; }

  // --- flows --------------------------------------------------------------------
  FlowId start_flow(const FlowParams& params);
  /// Registers the flow without scheduling its FlowStart event. Shard
  /// replicas that do not own the source host need the FlowState (the
  /// receiver half lives at the destination shard) but must never send.
  /// Expects the flow's packet count to fit FlowState::total_pkts.
  FlowId register_flow(const FlowParams& params);
  [[nodiscard]] const std::vector<FlowState>& flows() const { return flows_; }
  [[nodiscard]] FlowState& flow(FlowId id);
  /// Invoked whenever a flow completes (used to chain back-to-back flows).
  void set_flow_complete_callback(std::function<void(Network&, FlowState&)> cb);

  // --- periodic work (MIFO daemon ticks, monitors) ----------------------------
  void add_periodic(SimTime interval,
                    std::function<void(Network&, SimTime)> fn);

  // --- delivery trace (Fig. 12(a) aggregate-throughput series) ---------------
  void enable_delivery_trace(SimTime bucket_width);
  [[nodiscard]] const std::vector<Bytes>& delivery_buckets() const {
    return delivery_bytes_;
  }

  // --- execution ---------------------------------------------------------------
  /// Processes events up to and including `t_end`.
  void run_until(SimTime t_end);
  /// Runs until the event queue drains or `t_cap` is hit.
  void run_to_completion(SimTime t_cap);
  [[nodiscard]] bool idle() const { return events_.empty(); }
  /// Timestamp of the earliest pending event, +inf when idle. The sharded
  /// plane's conservative-window barrier reduces this across shards.
  [[nodiscard]] SimTime next_event_time() const;

  // --- sharding hooks (src/dataplane/shard.hpp) -------------------------------
  /// Marks this network as shard `self` of a sharded plane. `router_shard`
  /// and `host_shard` map node id -> owning shard (not owned; must outlive
  /// the network). Arrivals whose destination is owned elsewhere are handed
  /// to `sink` instead of the local event queue. Disabled (the default)
  /// this costs nothing — the serial engine's behaviour is bit-for-bit
  /// unchanged.
  void enable_shard_mode(std::uint32_t self,
                         const std::vector<std::uint32_t>* router_shard,
                         const std::vector<std::uint32_t>* host_shard,
                         std::function<void(RemoteEvent&&)> sink);
  /// Re-injects a cross-shard arrival drained from a handoff buffer. Must
  /// not be in this shard's past.
  void inject_remote(RemoteEvent&& ev);

  // --- data-plane services (used by Router and transport) --------------------
  /// Enqueue `p` on router r's port, honouring queue capacity; starts
  /// transmission when the port is idle.
  void transmit_router(RouterId r, PortId port, Packet p);
  /// Enqueue `p` on the host's uplink.
  void transmit_host(HostId h, Packet p);
  /// Lazily arm the flow's retransmission timer.
  void arm_flow_timer(FlowState& f);
  /// Receiver delivered `pkts` packets in order (throughput trace hook).
  void note_delivery(const FlowState& f, std::uint32_t pkts);
  /// A flow just finished (transport calls this exactly once per flow).
  void note_completion(FlowState& f);

  /// Sum of all router counters.
  [[nodiscard]] RouterCounters total_counters() const;

  // --- failure injection -------------------------------------------------------
  /// Administratively set a router port's link state. Taking a port down is
  /// a cable pull: the tx backlog is discarded immediately and accounted as
  /// `drops_down`, so drops during a down interval are attributed to the
  /// outage rather than surfacing later as queue overflow. Bringing it up
  /// resumes transmission of anything enqueued since.
  void set_port_up(RouterId r, PortId port, bool up);

  // --- change capture (incremental verification) ------------------------------
  /// Mirror value-changing FIB writes and link-state flips of every router
  /// into `log` (see dataplane/change_log.hpp). Attach after the topology is
  /// built — routers added later are not wired. The log is not owned and
  /// must outlive the network; nullptr detaches. Disabled (the default)
  /// this costs one pointer test per mutating call and nothing on the
  /// packet path.
  void attach_change_log(ChangeLog* log);
  [[nodiscard]] ChangeLog* change_log() const { return change_log_; }

  // --- observability -----------------------------------------------------------
  /// Opt-in forwarding-decision tracing. The tracer must outlive the
  /// network; nullptr (the default) disables tracing at one pointer test
  /// per hook. Not owned.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }

  /// Periodically sample every eBGP port's send rate, spare capacity and
  /// queue occupancy into link_samples() (paper III-C link monitoring,
  /// made inspectable). Call before the run; samples accumulate until the
  /// network is destroyed.
  void enable_link_sampling(SimTime interval);
  [[nodiscard]] const obs::LinkSeries& link_samples() const {
    return link_samples_;
  }

  /// Packet-conservation accounting (hosts only; raw transmit_router
  /// injections from tests are not tracked):
  ///   injected == delivered + misdelivered + stale_flow
  ///             + router drops (valley/no-route/ttl)
  ///             + port drops (overflow/down)      once queues drain.
  [[nodiscard]] std::uint64_t injected_pkts() const { return injected_pkts_; }
  [[nodiscard]] std::uint64_t delivered_pkts() const {
    return delivered_pkts_;
  }
  [[nodiscard]] std::uint64_t misdelivered_pkts() const {
    return misdelivered_pkts_;
  }
  [[nodiscard]] std::uint64_t stale_flow_pkts() const {
    return stale_flow_pkts_;
  }

  /// Every drop bucket in the network, by reason — router counters plus
  /// port-level overflow/down drops across routers and host uplinks.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  drop_breakdown() const;

  /// Total packets currently sitting in tx queues (0 once drained).
  [[nodiscard]] std::uint64_t queued_pkts() const;

  /// Publish aggregate counters into `reg` under the given label. Repeated
  /// calls with the same (registry, labels) reuse one registry shard and
  /// overwrite it in place, so a snapshot taken between two publishes (e.g.
  /// racing a barrier rendezvous) never double-counts; calls with distinct
  /// labels still get distinct shards. Snapshot after the run, not
  /// concurrently with it.
  void publish_metrics(obs::Registry& reg, const std::string& labels) const;

 private:
  enum class EvKind : std::uint8_t {
    ArriveRouter,
    ArriveHost,
    TxDoneRouter,
    TxDoneHost,
    FlowStart,
    FlowTimer,
    Periodic,
  };

  struct Event {
    EvKind kind = EvKind::Periodic;
    std::uint32_t a = 0;  ///< node id / flow index / periodic index
    std::uint32_t b = 0;  ///< port id
    Packet pkt{};
  };

  struct PeriodicTask {
    SimTime interval;
    std::function<void(Network&, SimTime)> fn;
  };

  /// Expects t >= now(): no event is scheduled in its past.
  void push_event(SimTime t, Event ev);
  /// The one pop-dispatch loop behind run_until and run_to_completion.
  void run_events(SimTime bound);
  void dispatch(Event& ev);
  /// Cable-pull semantics: discard a downed port's tx backlog as drops_down.
  static void flush_down_queue(Port& port);
  void begin_tx(NodeRef node, Port& port, std::uint32_t port_index);
  void enqueue_on(NodeRef node, Port& port, std::uint32_t port_index,
                  Packet p);
  void deliver_to_host(HostId h, const Packet& p);

  std::vector<Router> routers_;
  std::vector<Host> hosts_;
  std::vector<FlowState> flows_;
  std::vector<PeriodicTask> periodics_;
  EventQueue<Event> events_;
  std::function<void(Network&, FlowState&)> flow_complete_cb_;
  SimTime now_ = 0.0;
  std::uint64_t events_dispatched_ = 0;

  SimTime bucket_width_ = 0.0;
  std::vector<Bytes> delivery_bytes_;

  /// Shard mode (see enable_shard_mode); self_shard_ is meaningless and the
  /// maps are null while disabled.
  std::uint32_t self_shard_ = 0;
  const std::vector<std::uint32_t>* router_shard_ = nullptr;
  const std::vector<std::uint32_t>* host_shard_ = nullptr;
  std::function<void(RemoteEvent&&)> remote_sink_;

  obs::Tracer* tracer_ = nullptr;
  ChangeLog* change_log_ = nullptr;
  obs::LinkSeries link_samples_;
  std::uint64_t injected_pkts_ = 0;
  std::uint64_t delivered_pkts_ = 0;
  std::uint64_t misdelivered_pkts_ = 0;
  std::uint64_t stale_flow_pkts_ = 0;

  friend class Router;
};

}  // namespace mifo::dp
