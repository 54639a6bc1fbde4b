// Sharded multi-worker packet plane (DESIGN.md §6).
//
// `dp::Network` is a single-threaded event loop; ShardedNetwork scales it
// across cores the way MW-NFD scales NFD (SNIPPETS.md §3): per-core
// forwarding workers that each own a disjoint slice of the network — their
// routers' event queues, FIBs and per-port tx queues — with no locks on the
// forwarding path, and bounded SPSC rings carrying the packets that cross
// slices.
//
// Partitioning. Routers are partitioned by FNV-1a hash of their AS id (each
// AS's prefixes — and therefore its FIB rows, iBGP mesh, deflection encaps
// and MIFO daemon — stay on one worker); a host lives on its access router's
// shard. Every cross-shard link is consequently an eBGP link, whose
// propagation delay lower-bounds how far ahead one shard can run without
// hearing from another.
//
// Execution. Epoch-stepped conservative time windows: at every barrier the
// workers agree on a horizon = (earliest pending event anywhere) + W, where
// W is the minimum cross-shard link delay, then each worker dispatches its
// local events up to the horizon. Any packet emitted during the window
// arrives at least tx_time + W after its emission, i.e. strictly beyond the
// horizon, so draining the rings at the next barrier can never deliver an
// event into a shard's past — event ordering within a shard stays exactly
// the serial engine's (t, event_seq) order, and a run is deterministic for
// a given shard count. Drained ring batches are injected in the
// content-derived order (t, from_node, from_port), which is unique because
// per-port transmissions are serialized.
//
// The serial `dp::Network` is retained untouched as the differential
// oracle (docs/VERIFICATION.md oracle-retention policy);
// tests/integration/test_sharded_differential.cpp asserts bit-identical
// delivered-packet sets, drop breakdowns and conservation accounting
// between the two engines at 1, 2, 4 and 8 workers.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/spsc_ring.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "dataplane/network.hpp"

namespace mifo::dp {

struct ShardConfig {
  /// Capacity (entries) of each cross-shard ring. A full ring drops the
  /// packet — accounted as `ring_overflow` in drop_breakdown(), never
  /// silent — so size this above the worst per-window burst.
  std::size_t ring_capacity = 1u << 12;
};

/// Occupancy/drop statistics of one directed shard-pair ring.
struct RingStats {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint64_t pushed = 0;
  std::uint64_t overflow = 0;   ///< packets dropped: ring full
  std::size_t peak = 0;         ///< high-water occupancy
};

class ShardedNetwork {
 public:
  explicit ShardedNetwork(std::size_t num_shards, ShardConfig cfg = {});
  ~ShardedNetwork();
  ShardedNetwork(const ShardedNetwork&) = delete;
  ShardedNetwork& operator=(const ShardedNetwork&) = delete;

  // --- topology construction (mirrors dp::Network; applied to every
  // --- replica, before the first run) ----------------------------------------
  RouterId add_router(AsId as);
  HostId add_host();
  std::pair<PortId, PortId> connect_ebgp(RouterId a, RouterId b,
                                         topo::Rel b_as_is_to_a_as,
                                         Mbps rate = kGigabit,
                                         SimTime delay = 50e-6);
  std::pair<PortId, PortId> connect_ibgp(RouterId a, RouterId b,
                                         Mbps rate = 10 * kGigabit,
                                         SimTime delay = 20e-6);
  PortId connect_host(RouterId r, HostId h, Mbps rate = kGigabit,
                      SimTime delay = 20e-6);

  // --- partition ---------------------------------------------------------------
  [[nodiscard]] std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(nets_.size());
  }
  /// Shard owning an AS (FNV-1a of the AS id — every router of an AS, and
  /// every destination prefix it originates, maps to one worker).
  [[nodiscard]] std::uint32_t shard_of_as(AsId as) const;
  [[nodiscard]] std::uint32_t shard_of(RouterId r) const;
  [[nodiscard]] std::uint32_t shard_of(HostId h) const;
  /// The shard replica engine (daemon periodics, advanced tests). State of
  /// nodes owned by other shards is structurally present but never touched.
  [[nodiscard]] Network& shard_net(std::uint32_t s) { return *nets_[s]; }

  // --- owner-replica access ---------------------------------------------------
  /// The authoritative Router/Host object (owning shard's replica): FIB
  /// programming, RouterConfig, counters.
  [[nodiscard]] Router& router(RouterId r);
  [[nodiscard]] const Router& router(RouterId r) const;
  [[nodiscard]] std::size_t num_routers() const;
  [[nodiscard]] std::size_t num_hosts() const;
  [[nodiscard]] Addr router_addr(RouterId r) const;
  [[nodiscard]] Addr host_addr(HostId h) const;

  // --- flows -------------------------------------------------------------------
  /// Registers the flow in every replica (receiver state lives at the
  /// destination shard) and schedules transmission on the source host's
  /// shard. Unlike the serial engine there is no completion-callback flow
  /// chaining: schedule the full workload up front (params.start).
  FlowId start_flow(const FlowParams& params);
  [[nodiscard]] std::size_t num_flows() const;
  /// Sender-side state: started/done, completion_time, cwnd, retransmits.
  [[nodiscard]] const FlowState& sender_flow(FlowId id) const;
  /// Receiver-side state: `expected` is the in-order delivered count.
  [[nodiscard]] const FlowState& receiver_flow(FlowId id) const;

  // --- periodic work (management plane) ---------------------------------------
  /// Periodic task owned by `as`'s shard — the MIFO daemon tick. The task
  /// runs on that shard's worker at exact simulated times, interleaved with
  /// the shard's packet events, and must only touch state of ASes on the
  /// same shard (the daemon touches only its own AS).
  void add_periodic(AsId as, SimTime interval,
                    std::function<void(Network&, SimTime)> fn);

  // --- execution ---------------------------------------------------------------
  /// Processes events up to and including `t_end` on every shard. Blocks
  /// until all workers reach `t_end`. Repeated calls continue the run;
  /// between calls everything is parked, so control-plane mutation
  /// (set_port_up, FIB edits via router()) is safe — that is the sharded
  /// plane's management-thread moment.
  void run_until(SimTime t_end);
  /// Runs until every queue and ring drains, capped at `t_cap`.
  void run_to_completion(SimTime t_cap);
  [[nodiscard]] bool idle() const;
  [[nodiscard]] SimTime now() const { return nets_[0]->now(); }
  /// The conservative window W (0 until frozen by the first run).
  [[nodiscard]] SimTime window() const { return window_; }

  // --- failure injection (parked only) ----------------------------------------
  void set_port_up(RouterId r, PortId port, bool up);

  // --- observability (parked only) --------------------------------------------
  void enable_delivery_trace(SimTime bucket_width);
  [[nodiscard]] std::vector<Bytes> delivery_buckets() const;
  void enable_link_sampling(SimTime interval);
  /// Every shard's samples of its owned links, merged on (t, router, port).
  [[nodiscard]] obs::LinkSeries link_samples() const;

  [[nodiscard]] std::uint64_t injected_pkts() const;
  [[nodiscard]] std::uint64_t delivered_pkts() const;
  [[nodiscard]] std::uint64_t misdelivered_pkts() const;
  [[nodiscard]] std::uint64_t stale_flow_pkts() const;
  [[nodiscard]] RouterCounters total_counters() const;
  /// Serial buckets plus `ring_overflow` (packets dropped because a
  /// cross-shard ring was full). Conservation under the sharded plane:
  ///   injected == delivered + misdelivered + stale_flow + router drops
  ///             + port drops + ring_overflow            once drained.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  drop_breakdown() const;
  [[nodiscard]] std::uint64_t queued_pkts() const;
  [[nodiscard]] std::vector<RingStats> ring_stats() const;

  // --- flight recorder (docs/OBSERVABILITY.md) --------------------------------
  /// Creates one Tracer per worker (shard context pre-stamped) and attaches
  /// it to that worker's replica. Call before the first run; parked only.
  void enable_tracing(std::size_t capacity_per_shard = 4096);
  /// Per-flow filter applied to every worker tracer (parked only).
  void set_trace_flow(std::uint64_t flow);
  /// Worker tracer for shard `s` (nullptr until enable_tracing).
  [[nodiscard]] const obs::Tracer* tracer(std::uint32_t s) const;
  /// Snapshot-time causal merge of every worker tracer into one
  /// deterministically ordered timeline (obs::trace_order; parked only).
  [[nodiscard]] obs::Timeline timeline() const;

  /// Per-worker shard-runtime instrumentation, read while parked.
  struct WorkerStats {
    std::uint64_t epochs = 0;        ///< compute windows executed
    Histogram epoch_window;          ///< sim-time span per window (seconds)
    Histogram barrier_wait;          ///< wall-clock wait per rendezvous (s)
    WorkerStats();
  };
  [[nodiscard]] const std::vector<WorkerStats>& worker_stats() const {
    return worker_stats_;
  }

  /// Publishes every shard replica's dp.* metrics (one registry shard each;
  /// they merge at snapshot) plus ring occupancy gauges
  /// (dp.ring_occupancy_peak / dp.ring_pushed / dp.ring_overflow per
  /// directed shard pair), dp.shard_window, per-worker epoch counts and the
  /// epoch-window / barrier-wait histograms. Re-publishing with the same
  /// (registry, labels) overwrites in place — exactly-once per snapshot.
  void publish_metrics(obs::Registry& reg, const std::string& labels) const;

  // --- verification hooks ------------------------------------------------------
  /// Consistent copy of every router (owning replica), in RouterId order —
  /// feed to verify:: at a quiescent point (parked, e.g. after
  /// run_to_completion or between run_until segments).
  [[nodiscard]] std::vector<Router> gather_routers() const;

 private:
  struct RingSlot {
    std::unique_ptr<SpscRing<RemoteEvent>> ring;
    // Producer-written (its worker thread); read only while parked.
    std::uint64_t pushed = 0;
    std::uint64_t overflow = 0;
    std::size_t peak = 0;
  };

  /// Padded per-shard slot the barrier completion reduces over.
  struct alignas(kCacheLine) ShardSlot {
    SimTime next_event = 0.0;
  };

  void freeze();
  void on_remote(std::uint32_t from, RemoteEvent&& ev);
  RingSlot& ring_slot(std::uint32_t from, std::uint32_t to) {
    return rings_[from * nets_.size() + to];
  }
  [[nodiscard]] const RingSlot& ring_slot(std::uint32_t from,
                                          std::uint32_t to) const {
    return rings_[from * nets_.size() + to];
  }
  /// Drains every ring destined to shard `s`, restores the deterministic
  /// (t, from_node, from_port) order, and injects into the replica's queue.
  void drain_into(std::uint32_t s);
  void run_epochs(SimTime t_end);

  ShardConfig cfg_;
  std::vector<std::unique_ptr<Network>> nets_;
  /// Flight recorder: one per worker, attached to that worker's replica.
  std::vector<std::unique_ptr<obs::Tracer>> tracers_;
  /// One per worker; written only by its worker thread, read parked.
  std::vector<WorkerStats> worker_stats_;
  /// publish_metrics() exactly-once state (mirrors Network::PublishSlot).
  struct PublishSlot {
    obs::Registry* reg;
    std::string labels;
    obs::Registry::Shard* shard;
  };
  mutable std::vector<PublishSlot> pub_shards_;
  /// Node id -> owning shard. Address-stable (Network keeps pointers).
  std::vector<std::uint32_t> router_shard_;
  std::vector<std::uint32_t> host_shard_;
  std::vector<AsId> router_as_;
  std::vector<RouterId> host_router_;
  std::vector<RingSlot> rings_;
  std::vector<ShardSlot> slots_;
  /// Scratch batch per shard for barrier drains (worker-owned).
  std::vector<std::vector<RemoteEvent>> drain_scratch_;
  SimTime window_ = 0.0;
  bool frozen_ = false;
};

}  // namespace mifo::dp
