#include "sim/fluid_sim.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <queue>

#include "common/contracts.hpp"
#include "common/parallel_for.hpp"
#include "miro/miro.hpp"

namespace mifo::sim {

namespace {
constexpr Mbps kLinkCapacity = kGigabit;  // paper: all links 1 Gbps
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kRemEps = 1e-6;   // megabits (~0.1 byte)
constexpr double kTimeEps = 1e-12;

std::vector<std::uint32_t> link_ids(std::span<const LinkId> links) {
  std::vector<std::uint32_t> out;
  out.reserve(links.size());
  for (const LinkId l : links) out.push_back(l.value());
  return out;
}
}  // namespace

FluidSim::FluidSim(const topo::AsGraph& g, SimConfig cfg)
    : g_(g), cfg_(cfg) {
  MIFO_EXPECTS(cfg.congest_threshold > 0.0 && cfg.congest_threshold <= 1.0);
  MIFO_EXPECTS(cfg.low_watermark >= 0.0 &&
               cfg.low_watermark <= cfg.congest_threshold);
  MIFO_EXPECTS(cfg.reeval_interval > 0.0);
  deployed_.assign(g.num_ases(), false);
  capacity_.assign(g.num_directed_links(), kLinkCapacity);
  alloc_.assign(g.num_directed_links(), 0.0);
}

void FluidSim::set_deployment(std::vector<bool> deployed) {
  MIFO_EXPECTS(deployed.size() == g_.num_ases());
  deployed_ = std::move(deployed);
}

void FluidSim::attach_registry(obs::Registry& reg, const std::string& labels) {
  m_arrivals_ = reg.counter("sim.arrivals", labels);
  m_unreachable_ = reg.counter("sim.unreachable", labels);
  m_completions_ = reg.counter("sim.completions", labels);
  m_ticks_ = reg.counter("sim.ticks", labels);
  m_solver_runs_ = reg.counter("sim.solver_runs", labels);
  m_reroutes_ = reg.counter("sim.reroutes", labels);
  m_cache_bytes_ = reg.gauge("sim.route_cache_bytes", labels);
  m_active_flows_ = reg.gauge("sim.active_flows", labels);
  m_offered_load_ = reg.gauge("sim.offered_load_mbps", labels);
  m_solver_components_ = reg.counter("sim.solver_components", labels);
  m_solver_incidences_ = reg.counter("sim.solver_incidences", labels);
  m_solver_full_incidences_ =
      reg.counter("sim.solver_full_incidences", labels);
  m_solver_diff_checks_ = reg.counter("sim.solver_diff_checks", labels);
  shard_ = &reg.create_shard();
  shard_->set(m_cache_bytes_, static_cast<double>(cache_bytes_));
}

const bgp::RouteStore& FluidSim::routes_for(AsId dest) {
  auto it = cache_.find(dest.value());
  if (it == cache_.end()) {
    it = cache_
             .emplace(dest.value(),
                      std::make_unique<bgp::RouteStore>(g_, dest))
             .first;
    cache_bytes_ += it->second->bytes();
    if (shard_) shard_->set(m_cache_bytes_, static_cast<double>(cache_bytes_));
  }
  return *it->second;
}

void FluidSim::warm_route_cache(std::span<const traffic::FlowSpec> specs) {
  std::vector<std::uint32_t> dests;
  dests.reserve(specs.size());
  for (const auto& s : specs) dests.push_back(s.dst.value());
  warm_route_cache_dests(std::move(dests));
}

void FluidSim::warm_route_cache_dests(std::vector<std::uint32_t> dests) {
  // Unique destinations not yet cached, in sorted order (deterministic).
  std::sort(dests.begin(), dests.end());
  dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
  std::erase_if(dests,
                [this](std::uint32_t d) { return cache_.contains(d); });

  const std::size_t threads =
      cfg_.threads != 0 ? cfg_.threads : default_thread_count();
  if (threads <= 1 || dests.size() < 2) return;  // lazy serial path suffices

  // compute_routes is pure per destination, so each slot is independent;
  // the cache itself is only touched from this thread, after the join.
  std::vector<std::unique_ptr<bgp::RouteStore>> computed(dests.size());
  parallel_for(threads, dests.size(), [this, &dests, &computed](std::size_t i) {
    computed[i] = std::make_unique<bgp::RouteStore>(g_, AsId(dests[i]));
  });
  for (std::size_t i = 0; i < dests.size(); ++i) {
    cache_bytes_ += computed[i]->bytes();
    cache_.emplace(dests[i], std::move(computed[i]));
  }
  if (shard_) shard_->set(m_cache_bytes_, static_cast<double>(cache_bytes_));
}

void FluidSim::schedule_capacity_event(SimTime t, LinkId link, double factor) {
  MIFO_EXPECTS(t >= 0.0);
  MIFO_EXPECTS(link.value() < g_.num_directed_links());
  cap_events_.push_back(
      CapacityEvent{t, link.value(), std::clamp(factor, 1e-3, 10.0)});
}

double FluidSim::utilization(std::uint32_t link) const {
  return alloc_[link] / capacity_[link];
}

core::WalkResult FluidSim::route_flow(AsId src, AsId dest) {
  const bgp::RouteStore& routes = routes_for(dest);
  switch (cfg_.mode) {
    case RoutingMode::Bgp:
      return core::bgp_walk(g_, routes, src);
    case RoutingMode::Mifo: {
      core::WalkConfig wc;
      wc.congest_threshold = cfg_.congest_threshold;
      wc.min_spare_margin = cfg_.spare_margin;
      wc.max_extra_hops = cfg_.max_extra_hops;
      wc.selection = cfg_.alt_selection;
      return core::mifo_walk(
          g_, routes, deployed_, src,
          [this](LinkId l) { return utilization(l.value()); }, wc);
    }
    case RoutingMode::Miro: {
      core::WalkResult def = core::bgp_walk(g_, routes, src);
      if (!def.reachable) return def;
      double worst = 0.0;
      for (const LinkId l : def.links) {
        worst = std::max(worst, utilization(l.value()));
      }
      if (worst < cfg_.congest_threshold) return def;
      // Source-only deflection over the (pre-negotiated, static) tunnels:
      // take the most-preferred alternative whose own first hop is not
      // congested. MIRO tunnels are negotiated on the control plane; the
      // source has no end-to-end load visibility.
      const auto alts =
          miro::alternatives(g_, routes, src, deployed_);
      for (const auto& alt : alts) {
        const LinkId first = g_.link(src, alt.next_hop);
        if (utilization(first.value()) >= cfg_.congest_threshold) continue;
        const auto path = miro::alt_path(g_, routes, src, alt.next_hop);
        if (path.empty()) continue;
        core::WalkResult cand;
        cand.reachable = true;
        cand.path = path;
        cand.links = core::links_of_path(g_, path);
        cand.deflections = 1;
        return cand;
      }
      return def;
    }
  }
  return {};
}

void FluidSim::recompute_rates() {
  // Clear previous allocations (only links that were touched).
  for (const auto& f : active_) {
    for (const std::uint32_t l : f.links) alloc_[l] = 0.0;
  }
  flow_links_view_.clear();
  flow_links_view_.reserve(active_.size());
  for (const auto& f : active_) flow_links_view_.emplace_back(f.links);

  MaxMinInput in;
  in.flow_links = flow_links_view_;
  in.link_capacity = capacity_;
  in.flow_cap = cfg_.flow_rate_cap;
  in.num_links = capacity_.size();
  const std::span<const double> rates = max_min_rates(in, maxmin_ws_);

  for (std::size_t i = 0; i < active_.size(); ++i) {
    active_[i].rate = rates[i];
    for (const std::uint32_t l : active_[i].links) alloc_[l] += rates[i];
  }
  if (shard_) shard_->add(m_solver_runs_);
}

void FluidSim::reset_run_state() {
  active_.clear();
  // Completions tear allocations down flow by flow, which can leave tiny
  // floating-point residues behind; start every run from exact zeros.
  std::fill(alloc_.begin(), alloc_.end(), 0.0);
  // Chaos capacity events mutate capacity_ mid-run; start from a clean slate
  // so back-to-back runs on one sim are independent.
  std::fill(capacity_.begin(), capacity_.end(), kLinkCapacity);
  std::stable_sort(cap_events_.begin(), cap_events_.end(),
                   [](const CapacityEvent& a, const CapacityEvent& b) {
                     return a.t < b.t;
                   });
}

std::optional<FluidSim::ActiveFlow> FluidSim::admit_path(
    FlowRecord& rec, std::uint32_t record) {
  const traffic::FlowSpec& spec = rec.spec;
  const core::WalkResult w = route_flow(spec.src, spec.dst);
  if (!w.reachable) {
    rec.unreachable = true;
    if (shard_) shard_->add(m_unreachable_);
    return std::nullopt;
  }
  if (shard_) shard_->add(m_arrivals_);
  ActiveFlow f;
  f.record = record;
  f.links = link_ids(w.links);
  f.deflt = link_ids(core::bgp_walk(g_, routes_for(spec.dst), spec.src).links);
  f.remaining_mb = to_megabits(spec.size);
  f.deflected = w.deflections > 0;
  if (f.deflected) {
    // The initial deflection is the flow's first path switch.
    rec.path_switches = 1;
    rec.used_alternative = true;
  }
  return f;
}

bool FluidSim::reevaluate_flow(ActiveFlow& f, FlowRecord& rec) {
  // Evaluate congestion as the flow's border routers would see it:
  // without the flow's own contribution. A lone flow saturating a link is
  // not congestion worth fleeing — counting it makes every full link
  // "congested" under max–min and the flow would oscillate between its
  // default and an alternative forever.
  for (const std::uint32_t l : f.links) alloc_[l] -= f.rate;
  const auto any_at = [this](const std::vector<std::uint32_t>& links,
                             double level) {
    return std::any_of(links.begin(), links.end(), [&](std::uint32_t l) {
      return utilization(l) >= level;
    });
  };
  // A flow on its default path leaves it when that path hits congestion; a
  // deflected flow resumes the default once it has drained (hysteresis).
  // Deflected flows do NOT hop between alternatives: under max–min sharing
  // every loaded bottleneck sits at full utilization, so alternative-fleeing
  // would re-shuffle the whole population every tick. The paper's stability
  // numbers (Fig. 9: two thirds of switching flows switch exactly once)
  // reflect this deflect-once/return-once discipline.
  const bool should_reroute = f.deflected
                                  ? !any_at(f.deflt, cfg_.low_watermark)
                                  : any_at(f.links, cfg_.congest_threshold);
  bool moved = false;
  if (should_reroute) {
    const core::WalkResult w = route_flow(rec.spec.src, rec.spec.dst);
    MIFO_ASSERT(w.reachable);  // it was reachable at admission
    std::vector<std::uint32_t> links = link_ids(w.links);
    if (links != f.links) {
      f.links = std::move(links);
      f.deflected = w.deflections > 0;
      ++rec.path_switches;
      rec.used_alternative = rec.used_alternative || f.deflected;
      if (shard_) shard_->add(m_reroutes_);
      moved = true;
    }
  }
  // Re-charge the (possibly moved) flow so later flows in this tick see
  // the shifted load.
  for (const std::uint32_t l : f.links) alloc_[l] += f.rate;
  return moved;
}

void FluidSim::take_sample(SimTime t) {
  obs::UtilSample s;
  s.t = t;
  double sum = 0.0;
  std::uint32_t loaded = 0;
  std::uint32_t congested = 0;
  for (std::size_t l = 0; l < alloc_.size(); ++l) {
    if (alloc_[l] <= 0.0) continue;
    const double u = alloc_[l] / capacity_[l];
    ++loaded;
    sum += u;
    s.max_util = std::max(s.max_util, u);
    if (u >= cfg_.congest_threshold) ++congested;
    s.total_spare_mbps += std::max(0.0, capacity_[l] - alloc_[l]);
  }
  s.mean_util = loaded != 0 ? sum / loaded : 0.0;
  s.frac_congested =
      loaded != 0 ? static_cast<double>(congested) / loaded : 0.0;
  s.active_flows = static_cast<std::uint32_t>(active_.size());
  samples_.push_back(s);
}

std::vector<FlowRecord> FluidSim::run(std::vector<traffic::FlowSpec> specs) {
  std::sort(specs.begin(), specs.end(),
            [](const traffic::FlowSpec& a, const traffic::FlowSpec& b) {
              return a.arrival < b.arrival;
            });
  std::vector<FlowRecord> records(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) records[i].spec = specs[i];

  warm_route_cache(specs);

  reset_run_state();
  std::size_t ci = 0;
  samples_.clear();
  next_sample_ = sample_interval_;
  SimTime t = 0.0;
  SimTime next_tick = cfg_.reeval_interval;
  std::size_t ai = 0;

  while (ai < specs.size() || !active_.empty()) {
    const SimTime t_arr = ai < specs.size() ? specs[ai].arrival : kInf;
    SimTime t_comp = kInf;
    for (const auto& f : active_) {
      if (f.rate > 0.0) {
        t_comp = std::min(t_comp, t + f.remaining_mb / f.rate);
      }
    }
    const SimTime t_tick =
        (cfg_.mode == RoutingMode::Bgp || active_.empty()) ? kInf : next_tick;
    // Pending capacity events only matter while flows exist to reshare; an
    // event before the next arrival with nothing active applies then too,
    // keeping event/arrival interleaving exact.
    const SimTime t_ev = ci < cap_events_.size() ? cap_events_[ci].t : kInf;
    const SimTime t_next = std::min({t_arr, t_comp, t_tick, t_ev});
    MIFO_ASSERT(t_next < kInf);
    MIFO_ASSERT(t_next >= t - kTimeEps);

    // Fluid advance.
    const SimTime dt = std::max(0.0, t_next - t);
    if (dt > 0.0) {
      for (auto& f : active_) f.remaining_mb -= f.rate * dt;
    }
    // Utilization samples describe the interval just advanced (alloc_ still
    // holds the rates that were in force over [t, t_next]).
    if (sample_interval_ > 0.0) {
      while (next_sample_ <= t_next + kTimeEps) {
        take_sample(next_sample_);
        next_sample_ += sample_interval_;
      }
    }
    t = t_next;

    bool changed = false;

    // Capacity events (link down/up/degrade) due now.
    while (ci < cap_events_.size() && cap_events_[ci].t <= t + kTimeEps) {
      capacity_[cap_events_[ci].link] =
          kLinkCapacity * cap_events_[ci].factor;
      changed = true;
      ++ci;
    }

    // Completions.
    for (std::size_t i = 0; i < active_.size();) {
      if (active_[i].remaining_mb <= kRemEps) {
        FlowRecord& rec = records[active_[i].record];
        rec.completed = true;
        rec.finish = t;
        if (shard_) shard_->add(m_completions_);
        for (const std::uint32_t l : active_[i].links) {
          alloc_[l] -= active_[i].rate;
        }
        active_[i] = std::move(active_.back());
        active_.pop_back();
        changed = true;
      } else {
        ++i;
      }
    }

    // Arrivals.
    for (; ai < specs.size() && specs[ai].arrival <= t + kTimeEps; ++ai) {
      if (auto f = admit_path(records[ai], static_cast<std::uint32_t>(ai))) {
        active_.push_back(std::move(*f));
        changed = true;
      }
    }

    // Re-evaluation tick.
    if (t_tick < kInf && t >= t_tick - kTimeEps) {
      if (shard_) shard_->add(m_ticks_);
      for (ActiveFlow& f : active_) reevaluate_flow(f, records[f.record]);
      changed = true;
      while (next_tick <= t + kTimeEps) next_tick += cfg_.reeval_interval;
    }

    if (changed) recompute_rates();
  }

  return records;
}

StreamResult FluidSim::run_stream(traffic::WorkloadEngine& workload,
                                  const StreamConfig& sc) {
  std::vector<std::uint32_t> dests;
  dests.reserve(workload.endpoints().size());
  for (const AsId a : workload.endpoints()) dests.push_back(a.value());
  warm_route_cache_dests(std::move(dests));
  return run_stream_impl(
      [&workload](traffic::FlowSpec& out) { return workload.next(out); },
      [&workload](SimTime t) { return workload.offered_load_mbps(t); }, sc);
}

StreamResult FluidSim::run_stream(std::vector<traffic::FlowSpec> specs,
                                  const StreamConfig& sc) {
  std::sort(specs.begin(), specs.end(),
            [](const traffic::FlowSpec& a, const traffic::FlowSpec& b) {
              return a.arrival < b.arrival;
            });
  warm_route_cache(specs);
  std::size_t next = 0;
  return run_stream_impl(
      [&specs, next](traffic::FlowSpec& out) mutable {
        if (next >= specs.size()) return false;
        out = specs[next++];
        return true;
      },
      nullptr, sc);
}

StreamResult FluidSim::run_stream_impl(
    const std::function<bool(traffic::FlowSpec&)>& source,
    const std::function<double(SimTime)>& offered, const StreamConfig& sc) {
  MIFO_EXPECTS(sc.epoch > 0.0);
  StreamResult res;

  reset_run_state();
  std::size_t ci = 0;

  IncrementalMaxMin solver(capacity_, cfg_.flow_rate_cap);

  // Streaming flow table, indexed by solver slot. Fluid state settles
  // lazily (remaining_mb is exact as of update_t), so an event only touches
  // the flows whose rates actually moved, not the whole population.
  struct SFlow : ActiveFlow {
    SimTime update_t = 0.0;
    std::uint32_t gen = 0;  ///< bumps on every rate change / reuse / death
    bool live = false;
  };
  std::vector<SFlow> sflows;

  // Lazy completion heap: predictions are exact while a flow's rate holds;
  // any rate change bumps the generation, orphaning stale entries.
  struct Pending {
    SimTime t = 0.0;
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };
  const auto later = [](const Pending& a, const Pending& b) {
    if (a.t != b.t) return a.t > b.t;
    if (a.slot != b.slot) return a.slot > b.slot;
    return a.gen > b.gen;
  };
  std::priority_queue<Pending, std::vector<Pending>, decltype(later)> heap(
      later);

  SimTime t = 0.0;
  double total_rate = 0.0;  ///< Σ live rates (goodput integrand)
  std::size_t active = 0;
  SimTime next_tick = cfg_.reeval_interval;
  SimTime epoch_end = sc.epoch;
  double epoch_mb = 0.0;
  std::uint64_t epoch_arrivals = 0;
  std::uint64_t epoch_completions = 0;

  const auto timed = [&](auto&& op) {
    if (!sc.measure_solve_latency) {
      op();
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    op();
    const auto t1 = std::chrono::steady_clock::now();
    res.solve_seconds.push_back(
        std::chrono::duration<double>(t1 - t0).count());
  };

  // Propagate the solver's rate movements: settle each touched flow's
  // remaining bytes at its old rate, shift link allocations by the delta,
  // and re-predict its completion.
  const auto apply_changes = [&] {
    for (const IncrementalMaxMin::RateChange& ch : solver.changes()) {
      SFlow& f = sflows[ch.slot];
      f.remaining_mb -= f.rate * (t - f.update_t);
      f.update_t = t;
      const double delta = ch.new_rate - ch.old_rate;
      for (const std::uint32_t l : f.links) alloc_[l] += delta;
      total_rate += delta;
      f.rate = ch.new_rate;
      ++f.gen;
      if (f.rate > 0.0) {
        heap.push(Pending{t + std::max(0.0, f.remaining_mb) / f.rate,
                          ch.slot, f.gen});
      }
    }
    if (sc.differential) (void)solver.check_differential();
  };

  const auto emit_epoch = [&](SimTime edge, SimTime length) {
    obs::LoadSample s;
    s.t = edge;
    s.goodput_mbps = length > 0.0 ? epoch_mb / length : 0.0;
    s.offered_mbps = offered ? offered(edge) : 0.0;
    std::uint32_t loaded = 0;
    std::uint32_t congested = 0;
    for (std::size_t l = 0; l < alloc_.size(); ++l) {
      if (alloc_[l] <= 0.0) continue;
      const double u = alloc_[l] / capacity_[l];
      ++loaded;
      s.max_util = std::max(s.max_util, u);
      if (u >= cfg_.congest_threshold) ++congested;
    }
    s.frac_congested =
        loaded != 0 ? static_cast<double>(congested) / loaded : 0.0;
    s.active_flows = active;
    s.arrivals = epoch_arrivals;
    s.completions = epoch_completions;
    res.load.push_back(s);
    if (shard_) {
      shard_->set(m_active_flows_, static_cast<double>(active));
      shard_->set(m_offered_load_, s.offered_mbps);
    }
    epoch_mb = 0.0;
    epoch_arrivals = 0;
    epoch_completions = 0;
  };

  const auto admit = [&](const traffic::FlowSpec& spec) {
    const auto rec_idx = static_cast<std::uint32_t>(res.records.size());
    res.records.push_back(FlowRecord{spec});
    auto admitted = admit_path(res.records.back(), rec_idx);
    if (!admitted) return;
    IncrementalMaxMin::Slot slot = IncrementalMaxMin::kInvalidSlot;
    timed([&] { slot = solver.add_flow(admitted->links); });
    if (sflows.size() <= slot) sflows.resize(slot + 1);
    SFlow& f = sflows[slot];
    const std::uint32_t gen = f.gen + 1;  // orphan the slot's stale entries
    f = SFlow{std::move(*admitted), t, gen, true};
    ++active;
    ++epoch_arrivals;
    res.peak_active = std::max<std::uint64_t>(res.peak_active, active);
    apply_changes();
    MIFO_ASSERT(f.rate > 0.0);  // nonempty path ⇒ positive max–min share
  };

  traffic::FlowSpec pending;
  bool have = source(pending);

  while (have || active > 0) {
    const SimTime t_arr = have ? pending.arrival : kInf;
    const SimTime t_comp = heap.empty() ? kInf : heap.top().t;
    const SimTime t_tick =
        (cfg_.mode == RoutingMode::Bgp || active == 0) ? kInf : next_tick;
    const SimTime t_ev = ci < cap_events_.size() ? cap_events_[ci].t : kInf;
    SimTime t_next = std::min({t_arr, t_comp, t_tick, t_ev});
    MIFO_ASSERT(t_next < kInf);
    bool stop = false;
    if (sc.max_time > 0.0 && t_next > sc.max_time) {
      t_next = std::max(t, sc.max_time);
      stop = true;
    }
    MIFO_ASSERT(t_next >= t - kTimeEps);

    // Integrate goodput across every epoch edge inside [t, t_next].
    SimTime cursor = t;
    while (epoch_end <= t_next + kTimeEps) {
      epoch_mb += total_rate * std::max(0.0, epoch_end - cursor);
      cursor = epoch_end;
      emit_epoch(epoch_end, sc.epoch);
      epoch_end += sc.epoch;
    }
    epoch_mb += total_rate * std::max(0.0, t_next - cursor);
    t = t_next;
    if (stop) {
      res.truncated = active > 0;
      break;
    }

    // Capacity events (chaos link down/degrade/up) due now.
    while (ci < cap_events_.size() && cap_events_[ci].t <= t + kTimeEps) {
      const std::uint32_t link = cap_events_[ci].link;
      const double cap = kLinkCapacity * cap_events_[ci].factor;
      capacity_[link] = cap;
      timed([&] { solver.set_capacity(link, cap); });
      apply_changes();
      ++ci;
    }

    // Completions: pop due predictions, skipping orphaned generations.
    while (!heap.empty() && heap.top().t <= t + kTimeEps) {
      const Pending e = heap.top();
      heap.pop();
      SFlow& f = sflows[e.slot];
      if (!f.live || e.gen != f.gen) continue;
      f.remaining_mb -= f.rate * (t - f.update_t);
      f.update_t = t;
      FlowRecord& rec = res.records[f.record];
      rec.completed = true;
      rec.finish = t;
      if (shard_) shard_->add(m_completions_);
      for (const std::uint32_t l : f.links) alloc_[l] -= f.rate;
      total_rate -= f.rate;
      f.live = false;
      ++f.gen;
      --active;
      ++epoch_completions;
      timed([&] { solver.remove_flow(e.slot); });
      apply_changes();
    }

    // Arrivals.
    while (have && pending.arrival <= t + kTimeEps) {
      admit(pending);
      have = source(pending);
    }

    // Re-evaluation tick: path moves go through the incremental solver one
    // flow at a time, so each later flow sees the re-solved rates.
    if (t_tick < kInf && t >= t_tick - kTimeEps) {
      if (shard_) shard_->add(m_ticks_);
      for (std::uint32_t slot = 0; slot < sflows.size(); ++slot) {
        SFlow& f = sflows[slot];
        if (!f.live || !reevaluate_flow(f, res.records[f.record])) continue;
        timed([&] { solver.update_path(slot, f.links); });
        apply_changes();
      }
      while (next_tick <= t + kTimeEps) next_tick += cfg_.reeval_interval;
    }
  }

  // Close the trailing partial epoch so the goodput integral is exact.
  {
    const SimTime start = epoch_end - sc.epoch;
    const SimTime length = t - start;
    if (length > kTimeEps &&
        (epoch_mb > 0.0 || epoch_arrivals + epoch_completions > 0)) {
      emit_epoch(t, length);
    }
  }

  res.duration = t;
  res.solver = solver.stats();
  if (shard_) {
    shard_->add(m_solver_runs_, static_cast<double>(res.solver.events));
    shard_->add(m_solver_components_,
                static_cast<double>(res.solver.components_solved));
    shard_->add(m_solver_incidences_,
                static_cast<double>(res.solver.incidences_resolved));
    shard_->add(m_solver_full_incidences_,
                static_cast<double>(res.solver.full_incidences));
    shard_->add(m_solver_diff_checks_,
                static_cast<double>(res.solver.differential_checks));
  }
  return res;
}

}  // namespace mifo::sim
