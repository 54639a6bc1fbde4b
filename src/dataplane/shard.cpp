#include "dataplane/shard.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <limits>
#include <thread>

#include "common/contracts.hpp"
#include "obs/registry.hpp"

namespace mifo::dp {

namespace {
constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
/// host_shard_ value of a host that has not been connect_host()ed yet.
constexpr std::uint32_t kUnowned = std::numeric_limits<std::uint32_t>::max();

/// Shared explicit bucket bounds for the shard-runtime histograms, so the
/// worker-local accumulators and the registry metric agree bin-for-bin
/// (Registry::Shard::set_histogram requires identical binning).
/// Epoch windows are sim-time: typically one cross-shard delay (~hundreds
/// of microseconds) but stretched across idle gaps between flow starts.
std::vector<double> epoch_window_bounds() {
  return {0.0,    100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3,
          10e-3,  25e-3,  50e-3,  0.1,    0.25, 1.0};
}
/// Barrier waits are wall-clock: sub-microsecond when the load is balanced,
/// milliseconds when one worker owns a hot AS and the rest stall.
std::vector<double> barrier_wait_bounds() {
  return {0.0,   1e-6,  5e-6,  10e-6, 50e-6, 100e-6, 500e-6,
          1e-3,  5e-3,  10e-3, 50e-3, 0.1,   1.0};
}

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace

ShardedNetwork::WorkerStats::WorkerStats()
    : epoch_window(epoch_window_bounds()),
      barrier_wait(barrier_wait_bounds()) {}

ShardedNetwork::ShardedNetwork(std::size_t num_shards, ShardConfig cfg)
    : cfg_(cfg) {
  MIFO_EXPECTS(num_shards >= 1);
  MIFO_EXPECTS(cfg_.ring_capacity >= 2);
  nets_.reserve(num_shards);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    nets_.push_back(std::make_unique<Network>());
    nets_.back()->enable_shard_mode(
        s, &router_shard_, &host_shard_,
        [this, s](RemoteEvent&& ev) { on_remote(s, std::move(ev)); });
  }
  slots_.resize(num_shards);
  drain_scratch_.resize(num_shards);
  worker_stats_.resize(num_shards);
}

ShardedNetwork::~ShardedNetwork() = default;

// --- topology construction (mirrored into every replica) ---------------------

RouterId ShardedNetwork::add_router(AsId as) {
  MIFO_EXPECTS(!frozen_);
  RouterId id;
  for (auto& net : nets_) id = net->add_router(as);
  router_shard_.push_back(shard_of_as(as));
  router_as_.push_back(as);
  return id;
}

HostId ShardedNetwork::add_host() {
  MIFO_EXPECTS(!frozen_);
  HostId id;
  for (auto& net : nets_) id = net->add_host();
  host_shard_.push_back(kUnowned);  // owned once attached to a router
  host_router_.push_back(RouterId(kUnowned));
  return id;
}

std::pair<PortId, PortId> ShardedNetwork::connect_ebgp(RouterId a, RouterId b,
                                                       topo::Rel rel, Mbps rate,
                                                       SimTime delay) {
  MIFO_EXPECTS(!frozen_);
  std::pair<PortId, PortId> ids;
  for (auto& net : nets_) ids = net->connect_ebgp(a, b, rel, rate, delay);
  return ids;
}

std::pair<PortId, PortId> ShardedNetwork::connect_ibgp(RouterId a, RouterId b,
                                                       Mbps rate,
                                                       SimTime delay) {
  MIFO_EXPECTS(!frozen_);
  std::pair<PortId, PortId> ids;
  for (auto& net : nets_) ids = net->connect_ibgp(a, b, rate, delay);
  return ids;
}

PortId ShardedNetwork::connect_host(RouterId r, HostId h, Mbps rate,
                                    SimTime delay) {
  MIFO_EXPECTS(!frozen_);
  PortId id;
  for (auto& net : nets_) id = net->connect_host(r, h, rate, delay);
  host_shard_[h.value()] = router_shard_[r.value()];
  host_router_[h.value()] = r;
  return id;
}

// --- partition ----------------------------------------------------------------

std::uint32_t ShardedNetwork::shard_of_as(AsId as) const {
  // FNV-1a over the AS id's bytes. Anything uniform works; FNV keeps the
  // placement stable across runs, builds and shard-map reloads.
  std::uint64_t h = 14695981039346656037ull;
  auto v = static_cast<std::uint64_t>(as.value());
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffu;
    h *= 1099511628211ull;
  }
  return static_cast<std::uint32_t>(h % nets_.size());
}

std::uint32_t ShardedNetwork::shard_of(RouterId r) const {
  MIFO_EXPECTS(r.value() < router_shard_.size());
  return router_shard_[r.value()];
}

std::uint32_t ShardedNetwork::shard_of(HostId h) const {
  MIFO_EXPECTS(h.value() < host_shard_.size());
  MIFO_EXPECTS(host_shard_[h.value()] != kUnowned);
  return host_shard_[h.value()];
}

// --- owner-replica access -----------------------------------------------------

Router& ShardedNetwork::router(RouterId r) {
  return nets_[shard_of(r)]->router(r);
}

const Router& ShardedNetwork::router(RouterId r) const {
  return nets_[shard_of(r)]->router(r);
}

std::size_t ShardedNetwork::num_routers() const {
  return router_shard_.size();
}

std::size_t ShardedNetwork::num_hosts() const { return host_shard_.size(); }

Addr ShardedNetwork::router_addr(RouterId r) const {
  return nets_[0]->router_addr(r);
}

Addr ShardedNetwork::host_addr(HostId h) const {
  return nets_[0]->host_addr(h);
}

// --- flows --------------------------------------------------------------------

FlowId ShardedNetwork::start_flow(const FlowParams& params) {
  const std::uint32_t src = shard_of(params.src);
  FlowId id;
  for (std::uint32_t s = 0; s < num_shards(); ++s) {
    // Same FlowId in every replica (ids are dense and construction is
    // mirrored); only the source shard gets the FlowStart event.
    id = s == src ? nets_[s]->start_flow(params)
                  : nets_[s]->register_flow(params);
  }
  return id;
}

std::size_t ShardedNetwork::num_flows() const {
  return nets_[0]->flows().size();
}

const FlowState& ShardedNetwork::sender_flow(FlowId id) const {
  MIFO_EXPECTS(id.value() < num_flows());
  const FlowParams& p = nets_[0]->flows()[id.value()].params;
  return nets_[shard_of(p.src)]->flows()[id.value()];
}

const FlowState& ShardedNetwork::receiver_flow(FlowId id) const {
  MIFO_EXPECTS(id.value() < num_flows());
  const FlowParams& p = nets_[0]->flows()[id.value()].params;
  return nets_[shard_of(p.dst)]->flows()[id.value()];
}

// --- periodic work ------------------------------------------------------------

void ShardedNetwork::add_periodic(AsId as, SimTime interval,
                                  std::function<void(Network&, SimTime)> fn) {
  nets_[shard_of_as(as)]->add_periodic(interval, std::move(fn));
}

// --- cross-shard handoff ------------------------------------------------------

void ShardedNetwork::on_remote(std::uint32_t from, RemoteEvent&& ev) {
  const std::uint32_t to =
      ev.to_router ? router_shard_[ev.node] : host_shard_[ev.node];
  RingSlot& slot = ring_slot(from, to);
  MIFO_ASSERT(slot.ring != nullptr);
  if (!slot.ring->try_push(std::move(ev))) {
    ++slot.overflow;  // bounded handoff: the packet is dropped, accounted
    return;
  }
  ++slot.pushed;
  slot.peak = std::max(slot.peak, slot.ring->size());
}

void ShardedNetwork::drain_into(std::uint32_t s) {
  std::vector<RemoteEvent>& batch = drain_scratch_[s];
  batch.clear();
  for (std::uint32_t from = 0; from < num_shards(); ++from) {
    if (from == s) continue;
    ring_slot(from, s).ring->drain_into(batch);
  }
  if (batch.empty()) return;
  // Ring arrival order depends on which producer ran when; restore the
  // content-derived total order so injection (which assigns event_seq_, the
  // same-timestamp tie-break) is deterministic. (t, from_node, from_port) is
  // unique: a port's transmissions are serialized and tx time is non-zero.
  std::sort(batch.begin(), batch.end(),
            [](const RemoteEvent& x, const RemoteEvent& y) {
              if (x.t != y.t) return x.t < y.t;
              if (x.from_router != y.from_router) return x.from_router;
              if (x.from_node != y.from_node) return x.from_node < y.from_node;
              return x.from_port < y.from_port;
            });
  for (RemoteEvent& ev : batch) nets_[s]->inject_remote(std::move(ev));
  batch.clear();
}

// --- execution ----------------------------------------------------------------

void ShardedNetwork::freeze() {
  if (frozen_) return;
  frozen_ = true;
  const std::uint32_t n = num_shards();
  rings_.resize(static_cast<std::size_t>(n) * n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      if (i == j) continue;
      ring_slot(i, j).ring =
          std::make_unique<SpscRing<RemoteEvent>>(cfg_.ring_capacity);
    }
  }

  // The conservative window is the minimum propagation delay of any link
  // whose endpoints hash to different shards (in practice: eBGP links, since
  // an AS never straddles shards). Topology is identical in every replica,
  // so replica 0 is representative.
  SimTime min_delay = kInf;
  const Network& net0 = *nets_[0];
  for (std::size_t r = 0; r < net0.num_routers(); ++r) {
    const Router& router = net0.router(RouterId(static_cast<std::uint32_t>(r)));
    for (std::size_t pi = 0; pi < router.num_ports(); ++pi) {
      const Port& port = router.port(PortId(static_cast<std::uint32_t>(pi)));
      if (!port.peer.is_router()) continue;  // host links never cross shards
      if (router_shard_[port.peer.id] == router_shard_[r]) continue;
      min_delay = std::min(min_delay, port.delay);
    }
  }
  window_ = min_delay;  // +inf with no cross-shard links: free-running
  MIFO_EXPECTS(window_ > 0.0);
}

void ShardedNetwork::run_epochs(SimTime t_end) {
  const std::uint32_t n = num_shards();

  // Barrier-completion state. Written by the completion function (which runs
  // on exactly one thread per phase, synchronized against every worker's
  // arrive/unblock by the barrier itself), read by all workers after the
  // compute phase.
  struct Control {
    SimTime horizon = 0.0;
    bool done = false;
    bool compute = true;  ///< phases alternate compute / plain rendezvous
  } ctl;

  auto completion = [this, &ctl, t_end]() noexcept {
    if (!ctl.compute) {
      ctl.compute = true;  // post-window rendezvous: nothing to decide
      return;
    }
    ctl.compute = false;
    SimTime m = kInf;
    for (const ShardSlot& slot : slots_) m = std::min(m, slot.next_event);
    if (m > t_end) {
      // Nothing anywhere within the run bound (and the rings were drained
      // right before this barrier, with no worker running in between that
      // could refill them): the epoch loop is finished.
      ctl.done = true;
      ctl.horizon = t_end;
    } else {
      // Every event generated inside the window arrives after
      // m + tx + min_cross_delay > horizon, so no shard can receive work
      // in its past.
      ctl.horizon = std::min(m + window_, t_end);
    }
  };
  std::barrier bar(static_cast<std::ptrdiff_t>(n), completion);

  auto worker = [this, &bar, &ctl, t_end](std::uint32_t s) {
    Network& net = *nets_[s];
    WorkerStats& ws = worker_stats_[s];
    SimTime prev_horizon = net.now();
    while (true) {
      drain_into(s);
      slots_[s].next_event = net.next_event_time();
      const auto w0 = std::chrono::steady_clock::now();
      bar.arrive_and_wait();  // completion computes horizon / done
      ws.barrier_wait.add(wall_seconds_since(w0));
      if (ctl.done) {
        net.run_until(t_end);  // no events left <= t_end; advances the clock
        return;
      }
      // New conservative epoch window: stamp the worker epoch (flight-
      // recorder context for injected packets and trace events) before any
      // event of the window executes. The epoch count is a pure function of
      // the simulated event set, so it is identical across same-seed runs.
      ++ws.epochs;
      net.set_worker_epoch(net.worker_epoch() + 1);
      ws.epoch_window.add(ctl.horizon - prev_horizon);
      prev_horizon = ctl.horizon;
      net.run_until(ctl.horizon);
      const auto w1 = std::chrono::steady_clock::now();
      bar.arrive_and_wait();  // everyone out of the window before draining
      ws.barrier_wait.add(wall_seconds_since(w1));
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(n - 1);
  for (std::uint32_t s = 1; s < n; ++s) threads.emplace_back(worker, s);
  worker(0);
  for (std::thread& t : threads) t.join();
}

void ShardedNetwork::run_until(SimTime t_end) {
  freeze();
  if (num_shards() == 1) {
    // Single shard: plain serial execution (the shard-mode hooks are active
    // but every node is self-owned, so nothing ever diverts to a ring).
    nets_[0]->run_until(t_end);
    return;
  }
  run_epochs(t_end);
}

void ShardedNetwork::run_to_completion(SimTime t_cap) {
  // The epoch loop already terminates as soon as every queue and ring is
  // empty (m == +inf), so completion-capped and bound-capped runs coincide;
  // unlike the serial engine the clock always lands on the cap.
  run_until(t_cap);
}

bool ShardedNetwork::idle() const {
  for (const auto& net : nets_) {
    if (!net->idle()) return false;
  }
  for (const RingSlot& slot : rings_) {
    if (slot.ring != nullptr && !slot.ring->empty()) return false;
  }
  return true;
}

// --- failure injection --------------------------------------------------------

void ShardedNetwork::set_port_up(RouterId r, PortId port, bool up) {
  nets_[shard_of(r)]->set_port_up(r, port, up);
}

// --- observability ------------------------------------------------------------

void ShardedNetwork::enable_delivery_trace(SimTime bucket_width) {
  for (auto& net : nets_) net->enable_delivery_trace(bucket_width);
}

std::vector<Bytes> ShardedNetwork::delivery_buckets() const {
  std::vector<Bytes> merged;
  for (const auto& net : nets_) {
    const std::vector<Bytes>& b = net->delivery_buckets();
    if (b.size() > merged.size()) merged.resize(b.size(), 0);
    for (std::size_t i = 0; i < b.size(); ++i) merged[i] += b[i];
  }
  return merged;
}

void ShardedNetwork::enable_link_sampling(SimTime interval) {
  // Every replica samples (the sampler skips routers it does not own), so
  // the merged series covers each eBGP port exactly once.
  for (auto& net : nets_) net->enable_link_sampling(interval);
}

obs::LinkSeries ShardedNetwork::link_samples() const {
  obs::LinkSeries merged;
  for (const auto& net : nets_) {
    const obs::LinkSeries& s = net->link_samples();
    merged.insert(merged.end(), s.begin(), s.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const obs::LinkSample& a, const obs::LinkSample& b) {
              if (a.t != b.t) return a.t < b.t;
              if (a.router != b.router) return a.router < b.router;
              return a.port < b.port;
            });
  return merged;
}

std::uint64_t ShardedNetwork::injected_pkts() const {
  std::uint64_t n = 0;
  for (const auto& net : nets_) n += net->injected_pkts();
  return n;
}

std::uint64_t ShardedNetwork::delivered_pkts() const {
  std::uint64_t n = 0;
  for (const auto& net : nets_) n += net->delivered_pkts();
  return n;
}

std::uint64_t ShardedNetwork::misdelivered_pkts() const {
  std::uint64_t n = 0;
  for (const auto& net : nets_) n += net->misdelivered_pkts();
  return n;
}

std::uint64_t ShardedNetwork::stale_flow_pkts() const {
  std::uint64_t n = 0;
  for (const auto& net : nets_) n += net->stale_flow_pkts();
  return n;
}

RouterCounters ShardedNetwork::total_counters() const {
  RouterCounters total;
  for (const auto& net : nets_) {
    const RouterCounters c = net->total_counters();
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

std::vector<std::pair<std::string, std::uint64_t>>
ShardedNetwork::drop_breakdown() const {
  // Dynamic state of a node is non-zero only in its owner replica, so the
  // elementwise sum of the per-replica breakdowns is the network total.
  std::vector<std::pair<std::string, std::uint64_t>> merged =
      nets_[0]->drop_breakdown();
  for (std::size_t s = 1; s < nets_.size(); ++s) {
    const auto shard = nets_[s]->drop_breakdown();
    MIFO_ASSERT(shard.size() == merged.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
      MIFO_ASSERT(shard[i].first == merged[i].first);
      merged[i].second += shard[i].second;
    }
  }
  std::uint64_t ring_overflow = 0;
  for (const RingSlot& slot : rings_) ring_overflow += slot.overflow;
  merged.emplace_back("ring_overflow", ring_overflow);
  return merged;
}

std::uint64_t ShardedNetwork::queued_pkts() const {
  std::uint64_t n = 0;
  for (const auto& net : nets_) n += net->queued_pkts();
  return n;
}

void ShardedNetwork::enable_tracing(std::size_t capacity_per_shard) {
  if (!tracers_.empty()) return;
  tracers_.reserve(num_shards());
  for (std::uint32_t s = 0; s < num_shards(); ++s) {
    tracers_.push_back(std::make_unique<obs::Tracer>(capacity_per_shard));
    tracers_.back()->set_shard(s);
    nets_[s]->set_tracer(tracers_.back().get());
  }
}

void ShardedNetwork::set_trace_flow(std::uint64_t flow) {
  for (auto& t : tracers_) t->set_flow_filter(flow);
}

const obs::Tracer* ShardedNetwork::tracer(std::uint32_t s) const {
  if (s >= tracers_.size()) return nullptr;
  return tracers_[s].get();
}

obs::Timeline ShardedNetwork::timeline() const {
  std::vector<const obs::Tracer*> ts;
  ts.reserve(tracers_.size());
  for (const auto& t : tracers_) ts.push_back(t.get());
  return obs::merge_timelines(ts);
}

std::vector<RingStats> ShardedNetwork::ring_stats() const {
  std::vector<RingStats> out;
  const std::uint32_t n = num_shards();
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const RingSlot& slot = ring_slot(i, j);
      out.push_back(RingStats{i, j, slot.pushed, slot.overflow, slot.peak});
    }
  }
  return out;
}

void ShardedNetwork::publish_metrics(obs::Registry& reg,
                                     const std::string& labels) const {
  for (const auto& net : nets_) net->publish_metrics(reg, labels);

  // Exactly-once per (registry, labels) — same idempotent-overwrite scheme
  // as Network::publish_metrics, so a snapshot between two publishes (e.g.
  // racing a barrier rendezvous) never sees this plane's gauges twice.
  obs::Registry::Shard* cached = nullptr;
  for (const PublishSlot& slot : pub_shards_) {
    if (slot.reg == &reg && slot.labels == labels) {
      cached = slot.shard;
      break;
    }
  }
  if (cached == nullptr) {
    cached = &reg.create_shard();
    pub_shards_.push_back(PublishSlot{&reg, labels, cached});
  }
  obs::Registry::Shard& shard = *cached;
  shard.set(reg.gauge("dp.num_shards", labels),
            static_cast<double>(num_shards()));
  if (window_ < kInf) {
    shard.set(reg.gauge("dp.shard_window_seconds", labels), window_);
  }
  for (const RingStats& rs : ring_stats()) {
    std::string l = "from=" + std::to_string(rs.from) +
                    ",to=" + std::to_string(rs.to);
    if (!labels.empty()) l = labels + "," + l;
    shard.set(reg.counter("dp.ring_pushed", l),
              static_cast<double>(rs.pushed));
    shard.set(reg.counter("dp.ring_overflow", l),
              static_cast<double>(rs.overflow));
    shard.set(reg.gauge("dp.ring_occupancy_peak", l),
              static_cast<double>(rs.peak));
  }

  // Shard-runtime instrumentation: per-worker epoch counts plus the merged
  // epoch-window (sim-time) and barrier-wait (wall-clock) histograms.
  // set_histogram replaces rather than accumulates, keeping re-publish
  // idempotent; the per-worker accumulators are summed into one scratch
  // histogram per family first.
  Histogram window_hist(epoch_window_bounds());
  Histogram wait_hist(barrier_wait_bounds());
  for (std::uint32_t s = 0; s < num_shards(); ++s) {
    const WorkerStats& ws = worker_stats_[s];
    std::string l = "shard=" + std::to_string(s);
    if (!labels.empty()) l = labels + "," + l;
    shard.set(reg.counter("dp.epochs", l), static_cast<double>(ws.epochs));
    window_hist.merge(ws.epoch_window);
    wait_hist.merge(ws.barrier_wait);
  }
  shard.set_histogram(
      reg.histogram("dp.epoch_window_seconds", epoch_window_bounds(), labels),
      window_hist);
  shard.set_histogram(
      reg.histogram("dp.barrier_wait_seconds", barrier_wait_bounds(), labels),
      wait_hist);
}

std::vector<Router> ShardedNetwork::gather_routers() const {
  std::vector<Router> out;
  out.reserve(num_routers());
  for (std::size_t r = 0; r < num_routers(); ++r) {
    const RouterId id(static_cast<std::uint32_t>(r));
    out.push_back(nets_[shard_of(id)]->router(id));
  }
  return out;
}

}  // namespace mifo::dp
