#include "chaos/engine.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "common/contracts.hpp"
#include "obs/trace.hpp"

namespace mifo::chaos {

namespace {

/// Delay after each event before the reconvergence snapshot: a few daemon
/// intervals, so the tick between event and snapshot is real.
constexpr SimTime kReconvDelay = 0.05;
/// Settle time after the plan ends before the final snapshot.
constexpr SimTime kDrainMargin = 0.5;

std::uint64_t port_key(RouterId r, PortId p) {
  return (static_cast<std::uint64_t>(r.value()) << 32) | p.value();
}

}  // namespace

const char* to_string(VerifyMode m) {
  switch (m) {
    case VerifyMode::Full:
      return "full";
    case VerifyMode::Incremental:
      return "incremental";
    case VerifyMode::Differential:
      return "differential";
  }
  return "?";
}

obs::Json Report::to_json() const {
  obs::Json root = obs::Json::object();
  root.set("safe", obs::Json::boolean(safe));
  root.set("checks_run",
           obs::Json::num(static_cast<std::uint64_t>(checks_run)));
  root.set("checks_clean",
           obs::Json::num(static_cast<std::uint64_t>(checks_clean)));
  root.set("events_applied",
           obs::Json::num(static_cast<std::uint64_t>(events_applied)));
  root.set("verify_mode", obs::Json::str(chaos::to_string(verify_mode)));
  root.set("differential_mismatches",
           obs::Json::num(static_cast<std::uint64_t>(differential_mismatches)));
  root.set("total_dirty_destinations",
           obs::Json::num(
               static_cast<std::uint64_t>(total_dirty_destinations)));
  root.set("total_cache_hits",
           obs::Json::num(static_cast<std::uint64_t>(total_cache_hits)));
  root.set("route_events",
           obs::Json::num(static_cast<std::uint64_t>(route_events)));
  root.set("total_route_recomputed",
           obs::Json::num(static_cast<std::uint64_t>(total_route_recomputed)));
  root.set("total_route_patched",
           obs::Json::num(static_cast<std::uint64_t>(total_route_patched)));
  root.set("total_route_unchanged",
           obs::Json::num(static_cast<std::uint64_t>(total_route_unchanged)));
  root.set("route_differential_mismatches",
           obs::Json::num(
               static_cast<std::uint64_t>(route_differential_mismatches)));

  obs::Json events = obs::Json::array();
  for (const AppliedEvent& ae : log) {
    obs::Json e = obs::Json::object();
    e.set("t", obs::Json::num(ae.event.t));
    e.set("kind", obs::Json::str(chaos::to_string(ae.event.kind)));
    e.set("applied", obs::Json::boolean(ae.applied));
    e.set("detail", obs::Json::str(ae.detail));
    e.set("clean_immediate", obs::Json::boolean(ae.clean_immediate));
    e.set("clean_reconverged", obs::Json::boolean(ae.clean_reconverged));
    if (ae.recovery_latency >= 0.0) {
      e.set("recovery_latency", obs::Json::num(ae.recovery_latency));
    }
    events.push(std::move(e));
  }
  root.set("events", std::move(events));

  obs::Json viols = obs::Json::array();
  for (const Violation& v : violations) {
    obs::Json j = obs::Json::object();
    j.set("t", obs::Json::num(v.t));
    j.set("event_index",
          obs::Json::num(static_cast<std::uint64_t>(v.event_index)));
    j.set("description", obs::Json::str(v.description));
    viols.push(std::move(j));
  }
  root.set("violations", std::move(viols));

  obs::Json span_arr = obs::Json::array();
  for (const Span& sp : spans) {
    obs::Json j = obs::Json::object();
    j.set("event_index",
          obs::Json::num(static_cast<std::uint64_t>(sp.event_index)));
    j.set("kind", obs::Json::str(chaos::to_string(sp.kind)));
    j.set("t_injected", obs::Json::num(sp.t_injected));
    if (sp.t_first_impact >= 0.0) {
      j.set("t_first_impact", obs::Json::num(sp.t_first_impact));
    }
    if (sp.t_reconverged >= 0.0) {
      j.set("t_reconverged", obs::Json::num(sp.t_reconverged));
    }
    if (sp.t_verified >= 0.0) {
      j.set("t_verified", obs::Json::num(sp.t_verified));
    }
    j.set("dirty_destinations",
          obs::Json::num(static_cast<std::uint64_t>(sp.dirty_destinations)));
    j.set("states_explored",
          obs::Json::num(static_cast<std::uint64_t>(sp.states_explored)));
    j.set("cache_hits",
          obs::Json::num(static_cast<std::uint64_t>(sp.cache_hits)));
    j.set("route_recomputed",
          obs::Json::num(static_cast<std::uint64_t>(sp.route_recomputed)));
    j.set("route_patched",
          obs::Json::num(static_cast<std::uint64_t>(sp.route_patched)));
    j.set("route_unchanged",
          obs::Json::num(static_cast<std::uint64_t>(sp.route_unchanged)));
    span_arr.push(std::move(j));
  }
  root.set("spans", std::move(span_arr));

  // Per-failure-class recovery-latency breakdown: every failure kind whose
  // paired recovery was verified clean contributes (t_verified - t_injected).
  struct ClassAgg {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  std::map<std::string, ClassAgg> by_class;  // ordered => stable JSON
  for (const AppliedEvent& ae : log) {
    if (ae.recovery_latency < 0.0) continue;
    ClassAgg& agg = by_class[std::string(chaos::to_string(ae.event.kind))];
    if (agg.count == 0 || ae.recovery_latency < agg.min) {
      agg.min = ae.recovery_latency;
    }
    if (agg.count == 0 || ae.recovery_latency > agg.max) {
      agg.max = ae.recovery_latency;
    }
    ++agg.count;
    agg.sum += ae.recovery_latency;
  }
  obs::Json classes = obs::Json::object();
  for (const auto& [kind, agg] : by_class) {
    obs::Json j = obs::Json::object();
    j.set("count", obs::Json::num(agg.count));
    j.set("mean_s", obs::Json::num(agg.sum / static_cast<double>(agg.count)));
    j.set("min_s", obs::Json::num(agg.min));
    j.set("max_s", obs::Json::num(agg.max));
    classes.set(kind, std::move(j));
  }
  root.set("recovery_by_class", std::move(classes));
  return root;
}

Engine::Engine(testbed::Emulation& em, const topo::AsGraph& g,
               EngineConfig cfg)
    : em_(&em),
      g_(&g),
      cfg_(cfg),
      route_ctl_(em, g),
      rng_(hash_combine(cfg.seed, 0xc4a06)) {
  owners_.reserve(em.hosts.size());
  for (const auto& att : em.hosts) owners_.emplace_back(att.addr, att.as);
  if (cfg_.verify_mode != VerifyMode::Full) {
    em.net->attach_change_log(&change_log_);
  }
}

void Engine::attach_registry(obs::Registry& reg, const std::string& labels) {
  reg_ = &reg;
  m_events_ = reg.counter("chaos.events_applied", labels);
  m_checks_ = reg.counter("chaos.checks", labels);
  m_violations_ = reg.counter("chaos.violations", labels);
  // Explicit bounds: observed recovery latencies span ~10 ms (one daemon
  // tick) to ~1 s (drain-resolved), so uniform 50 ms bins would smear the
  // entire fast mode into one bucket.
  m_recovery_ = reg.histogram(
      "chaos.recovery_latency",
      {0.0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0},
      labels);
  m_dirty_dests_ = reg.counter("verify.dirty_destinations", labels);
  m_states_explored_ = reg.counter("verify.states_explored", labels);
  m_cache_hits_ = reg.counter("verify.cache_hits", labels);
  shard_ = &reg.create_shard();
  dump_ = std::make_unique<obs::DumpService>(reg);
}

std::uint64_t Engine::drop_sum() const {
  std::uint64_t total = 0;
  for (const auto& [reason, count] : em_->net->drop_breakdown()) {
    total += count;
  }
  return total;
}

Engine::FullVerdict Engine::run_full_provers() const {
  const dp::Network& net = *em_->net;
  FullVerdict out;
  const auto loop_check = verify::check_loop_freedom(net);
  out.loop_free = loop_check.loop_free;
  out.loop_stats = loop_check.stats;
  out.states_explored = loop_check.stats.states;
  for (const auto& cycle : loop_check.cycles) {
    out.cycles.push_back(cycle.to_string());
  }
  const auto vc = verify::check_valley_freedom(net);
  out.states_explored += vc.stats.states;
  for (const auto& v : vc.violations) out.valleys.push_back(v.to_string());
  for (const auto& issue :
       verify::lint_deployment(net, *g_, em_->daemons, owners_)) {
    out.lints.push_back(issue.to_string());
  }
  return out;
}

bool Engine::snapshot(Report& report, SimTime t) {
  if (!cfg_.verify) return true;
  ++report.checks_run;
  if (shard_) shard_->add(m_checks_);

  // First-impact attribution: any fault whose injection-time drop baseline
  // has been exceeded by now saw its first dropped packet in (inject, t].
  const std::uint64_t drops_now = drop_sum();
  for (std::size_t i = 0; i < pending_impacts_.size();) {
    if (drops_now > pending_impacts_[i].drop_baseline) {
      report.spans[pending_impacts_[i].span_index].t_first_impact = t;
      pending_impacts_[i] = pending_impacts_.back();
      pending_impacts_.pop_back();
    } else {
      ++i;
    }
  }

  const dp::Network& net = *em_->net;
  report.verify_mode = cfg_.verify_mode;
  bool clean = true;
  last_cost_ = verify::IncrementalStats{};

  const auto report_strings = [&](const char* label,
                                  const std::vector<std::string>& items) {
    for (const std::string& s : items) {
      report.violations.push_back(
          Violation{t, last_event_index_, std::string(label) + ": " + s});
    }
  };

  if (cfg_.verify_mode == VerifyMode::Full) {
    const FullVerdict full = run_full_provers();
    report.last_stats = full.loop_stats;
    clean = full.loop_free && full.valleys.empty() && full.lints.empty();
    report_strings("cycle", full.cycles);
    report_strings("valley", full.valleys);
    report_strings("lint", full.lints);
    last_cost_.destinations = full.loop_stats.destinations;
    last_cost_.dirty_destinations = full.loop_stats.destinations;
    last_cost_.states_explored = full.states_explored;
  } else {
    changes_.drain(change_log_);
    const verify::IncrementalResult inc =
        inc_.check(net, *g_, em_->daemons, owners_, changes_);
    changes_.clear();
    report.last_stats = inc.loop.stats;
    clean = inc.loop.loop_free && inc.valley.valley_free && inc.lint.empty();
    std::vector<std::string> inc_cycles;
    std::vector<std::string> inc_valleys;
    std::vector<std::string> inc_lints;
    for (const auto& c : inc.loop.cycles) inc_cycles.push_back(c.to_string());
    for (const auto& v : inc.valley.violations) {
      inc_valleys.push_back(v.to_string());
    }
    for (const auto& i : inc.lint) inc_lints.push_back(i.to_string());
    report_strings("cycle", inc_cycles);
    report_strings("valley", inc_valleys);
    report_strings("lint", inc_lints);
    last_cost_ = inc.stats;
    report.total_dirty_destinations += inc.stats.dirty_destinations;
    report.total_cache_hits += inc.stats.cache_hits;

    if (cfg_.verify_mode == VerifyMode::Differential) {
      // Oracle pass: the untouched full provers on the same state. The
      // incremental result must be verdict- and counterexample-identical,
      // in order: both sides emit destination-ascending.
      const FullVerdict full = run_full_provers();
      const bool match = full.loop_free == inc.loop.loop_free &&
                         full.cycles == inc_cycles &&
                         full.valleys == inc_valleys &&
                         full.lints == inc_lints;
      if (!match) {
        ++report.differential_mismatches;
        report.violations.push_back(Violation{
            t, last_event_index_,
            "differential: incremental verdict diverged from full prover "
            "(cycles " +
                std::to_string(inc_cycles.size()) + "/" +
                std::to_string(full.cycles.size()) + ", valleys " +
                std::to_string(inc_valleys.size()) + "/" +
                std::to_string(full.valleys.size()) + ", lints " +
                std::to_string(inc_lints.size()) + "/" +
                std::to_string(full.lints.size()) + ", loop_free " +
                (inc.loop.loop_free ? "1" : "0") + "/" +
                (full.loop_free ? "1" : "0") + ")"});
        clean = false;
      }
      // Route-plane oracle: every delta-maintained CSR segment must be
      // element-identical to a from-scratch Gao-Rexford rebuild on the
      // current masked graph (withdrawn prefixes compare against the
      // all-invalid store). This is what catches plant_stale_route.
      for (const AsId d : route_ctl_.delta().differential_check()) {
        ++report.route_differential_mismatches;
        report.violations.push_back(Violation{
            t, last_event_index_,
            "route-differential: delta segment for AS" +
                std::to_string(d.value()) +
                " diverged from from-scratch rebuild"});
        clean = false;
      }
    }
  }
  if (shard_) {
    shard_->add(m_dirty_dests_,
                static_cast<double>(last_cost_.dirty_destinations));
    shard_->add(m_states_explored_,
                static_cast<double>(last_cost_.states_explored));
    shard_->add(m_cache_hits_, static_cast<double>(last_cost_.cache_hits));
  }
  if (!clean) {
    report.safe = false;
    if (shard_) shard_->add(m_violations_);
  } else {
    ++report.checks_clean;
    // A clean snapshot resolves every repair that happened before it: the
    // state machine is provably safe again, so the outage's verification
    // debt is paid. Latency counts from the *failure*, not the repair.
    for (std::size_t i = 0; i < pending_recoveries_.size();) {
      if (pending_recoveries_[i].recover_t <= t) {
        const PendingRecovery& pr = pending_recoveries_[i];
        AppliedEvent& fail_ev = report.log[pr.fail_index];
        fail_ev.recovery_latency = t - pr.fail_t;
        if (shard_) shard_->observe(m_recovery_, t - pr.fail_t);
        for (Span& sp : report.spans) {
          if (sp.event_index == pr.fail_index) {
            sp.t_verified = t;
            break;
          }
        }
        pending_recoveries_[i] = pending_recoveries_.back();
        pending_recoveries_.pop_back();
      } else {
        ++i;
      }
    }
  }
  if (dump_) dump_->service();
  return clean;
}

void Engine::nest_port_fault(RouterId r, PortId p, bool down) {
  int& depth = down_depth_[port_key(r, p)];
  if (down) {
    if (depth++ == 0) em_->net->set_port_up(r, p, false);
  } else if (depth > 0 && --depth == 0) {
    em_->net->set_port_up(r, p, true);
  }
}

void Engine::set_link_state(AsId a, AsId b, bool down, std::string& detail) {
  const auto* eg_ab = em_->wirings[a.value()].egress_to(b);
  const auto* eg_ba = em_->wirings[b.value()].egress_to(a);
  if (eg_ab == nullptr || eg_ba == nullptr) {
    detail = "no such adjacency";
    return;
  }
  for (const auto* eg : {eg_ab, eg_ba}) {
    nest_port_fault(eg->router, eg->port, down);
  }
  // The delta routing table models the BGP session, which is down while
  // *any* fault holds the adjacency down — so it sees only the undirected
  // 0 <-> 1 depth transitions, composing with overlapping faults the same
  // way the per-port depth map does.
  const AsId lo = a < b ? a : b;
  const AsId hi = a < b ? b : a;
  const std::uint64_t akey =
      (static_cast<std::uint64_t>(lo.value()) << 32) | hi.value();
  int& adepth = adj_down_depth_[akey];
  if (down) {
    if (adepth++ == 0) route_ctl_.session_down(a, b);
  } else if (adepth > 0 && --adepth == 0) {
    route_ctl_.session_up(a, b);
  }
  detail = std::string(down ? "down" : "up") + " r" +
           std::to_string(eg_ab->router.value()) + ":p" +
           std::to_string(eg_ab->port.value()) + " <-> r" +
           std::to_string(eg_ba->router.value()) + ":p" +
           std::to_string(eg_ba->port.value());
}

void Engine::scale_link_rate(AsId a, AsId b, double factor,
                             std::string& detail) {
  dp::Network& net = *em_->net;
  const auto* eg_ab = em_->wirings[a.value()].egress_to(b);
  const auto* eg_ba = em_->wirings[b.value()].egress_to(a);
  if (eg_ab == nullptr || eg_ba == nullptr) {
    detail = "no such adjacency";
    return;
  }
  factor = std::clamp(factor, 0.01, 1.0);
  for (const auto* eg : {eg_ab, eg_ba}) {
    dp::Port& port = net.router(eg->router).port(eg->port);
    const std::uint64_t key = port_key(eg->router, eg->port);
    const auto it = nominal_rate_.try_emplace(key, port.rate).first;
    port.rate = it->second * factor;
  }
  detail = "rate x" + std::to_string(factor);
}

void Engine::freeze_as(AsId as, bool freeze, std::string& detail) {
  dp::Network& net = *em_->net;
  const core::AsWiring& wiring = em_->wirings[as.value()];
  // Every port of every router in the AS goes down (and the remote end of
  // each eBGP link with it — a dead router kills the link both ways).
  // The down-depth map makes this compose with per-link faults.
  std::size_t ports = 0;
  for (const RouterId r : wiring.routers) {
    const std::size_t n = net.router(r).num_ports();
    for (std::size_t pi = 0; pi < n; ++pi) {
      nest_port_fault(r, PortId(static_cast<std::uint32_t>(pi)), freeze);
    }
    ports += n;
  }
  for (const auto& eg : wiring.egresses) {
    const auto* back = em_->wirings[eg.neighbor.value()].egress_to(as);
    MIFO_ASSERT(back != nullptr);
    nest_port_fault(back->router, back->port, freeze);
    ++ports;
  }
  em_->daemons[as.value()]->set_frozen(freeze);
  if (!freeze) {
    // Restart loses the daemon-programmed state: alt ports come back only
    // once the (unfrozen) daemon re-elects them on its next tick.
    for (const RouterId r : wiring.routers) {
      dp::Fib& fib = net.router(r).fib();
      std::vector<dp::Addr> with_alt;
      for (const auto& [dst, fe] : fib) {
        if (fe.alt_port.valid()) with_alt.push_back(dst);
      }
      for (const dp::Addr dst : with_alt) fib.clear_alt(dst);
    }
  }
  detail = std::to_string(wiring.routers.size()) + " routers, " +
           std::to_string(ports) + " ports " + (freeze ? "down" : "up");
}

void Engine::start_burst(const Event& ev, std::string& detail) {
  dp::Network& net = *em_->net;
  // Candidate hosts inside the requested ASes; fall back to any host so a
  // generated plan's burst never silently fizzles on a host-less AS.
  std::vector<HostId> srcs;
  std::vector<HostId> dsts;
  for (const auto& att : em_->hosts) {
    if (att.as == ev.a) srcs.push_back(att.host);
    if (att.as == ev.b) dsts.push_back(att.host);
  }
  if (srcs.empty()) {
    for (const auto& att : em_->hosts) srcs.push_back(att.host);
  }
  if (dsts.empty()) {
    for (const auto& att : em_->hosts) dsts.push_back(att.host);
  }
  std::uint32_t started = 0;
  for (std::uint32_t i = 0; i < std::max(1u, ev.count); ++i) {
    const HostId src = srcs[rng_.bounded(srcs.size())];
    HostId dst = dsts[rng_.bounded(dsts.size())];
    if (dst == src) {
      if (dsts.size() < 2 && em_->hosts.size() >= 2) {
        for (const auto& att : em_->hosts) {
          if (att.host != src) dsts.push_back(att.host);
        }
      }
      dst = dsts[rng_.bounded(dsts.size())];
      if (dst == src) continue;
    }
    dp::FlowParams fp;
    fp.src = src;
    fp.dst = dst;
    fp.size = static_cast<Bytes>(std::max(0.001, ev.value) * 1e6);
    fp.start = net.now();
    net.start_flow(fp);
    ++started;
  }
  detail = std::to_string(started) + " flows of " +
           std::to_string(ev.value) + " MB";
}

bool Engine::plant_valley(std::string& detail) {
  // Same planted violation as `mifo-verify --mutate-valley`.
  const testbed::ValleyRing planted = testbed::plant_valley_ring(*em_, *g_);
  if (!planted.error.empty()) {
    detail = planted.error;
    return false;
  }
  planted_violation_ = true;
  const std::vector<AsId>& ring = planted.ring;
  detail = "ring AS" + std::to_string(ring[0].value()) + "-AS" +
           std::to_string(ring[1].value()) + "-AS" +
           std::to_string(ring[2].value()) +
           " dst=" + std::to_string(planted.dst);
  return true;
}

bool Engine::plant_stale_route(std::string& detail) {
  // Negative control for the route differential oracle — the routing-plane
  // sibling of plant_valley: withdraw a live origin but make the delta
  // table skip that destination's republish, leaving a stale CSR segment.
  // The FIBs and daemons are evicted honestly, so the loop/valley/lint
  // provers stay clean; only the Differential snapshot's from-scratch
  // Gao-Rexford rebuild can expose the divergence.
  if (cfg_.verify_mode != VerifyMode::Differential) {
    detail = "requires differential verify mode";
    return false;
  }
  for (const auto& [addr, as] : owners_) {
    bgp::DeltaRoutingTable& delta = route_ctl_.delta();
    if (delta.withdrawn(as) || !delta.tracks(as)) continue;
    delta.plant_stale(as);
    const bool ok = route_ctl_.withdraw(as);
    MIFO_ASSERT(ok);
    planted_violation_ = true;
    detail = "stale segment planted for AS" + std::to_string(as.value()) +
             " (origin withdrawn, republish skipped)";
    return true;
  }
  detail = "no live tracked origin to withdraw";
  return false;
}

void Engine::note_route_delta(Report& report, Span& sp) {
  const std::uint64_t epoch = route_ctl_.delta().epoch();
  if (epoch == seen_route_epoch_) return;  // no routing-plane effect
  seen_route_epoch_ = epoch;
  const bgp::DeltaStats& st = route_ctl_.last_delta_stats();
  sp.route_recomputed = st.recomputed;
  sp.route_patched = st.patched;
  sp.route_unchanged = st.unchanged;
  ++report.route_events;
  report.total_route_recomputed += st.recomputed;
  report.total_route_patched += st.patched;
  report.total_route_unchanged += st.unchanged;
  if (cfg_.verify_mode != VerifyMode::Full) {
    // The touched set (recomputed + view-patched) doubles as the verifier's
    // routing dirty set: every destination whose published segment the
    // delta engine swapped is re-proved at the next snapshot, even when its
    // FIB rows happened not to move (the RoutingChange -> pfx row of the
    // ChangeSet mapping).
    for (const AsId dest : st.touched_dests) {
      for (const auto& [addr, as] : owners_) {
        if (as == dest) changes_.note_routing(addr);
      }
    }
  }
}

std::pair<bool, std::string> Engine::apply(const Event& ev) {
  std::string detail;
  switch (ev.kind) {
    case EventKind::LinkDown:
      set_link_state(ev.a, ev.b, true, detail);
      return {detail != "no such adjacency", detail};
    case EventKind::LinkUp:
      set_link_state(ev.a, ev.b, false, detail);
      return {detail != "no such adjacency", detail};
    case EventKind::Degrade:
      scale_link_rate(ev.a, ev.b, ev.value, detail);
      return {detail != "no such adjacency", detail};
    case EventKind::Restore:
      scale_link_rate(ev.a, ev.b, 1.0, detail);
      return {detail != "no such adjacency", detail};
    case EventKind::Withdraw: {
      const bool ok = route_ctl_.withdraw(ev.a);
      return {ok, ok ? "origin withdrawn, RIBs reconverged"
                     : "AS owns no prefix / already withdrawn"};
    }
    case EventKind::Reannounce: {
      const bool ok = route_ctl_.reannounce(ev.a);
      return {ok, ok ? "origin re-announced, FIBs reinstalled"
                     : "AS not withdrawn"};
    }
    case EventKind::IbgpDrop:
      em_->daemons[ev.a.value()]->set_stale(true);
      return {true, "spare adverts frozen at last values"};
    case EventKind::IbgpRestore:
      em_->daemons[ev.a.value()]->set_stale(false);
      return {true, "fresh spare adverts resume"};
    case EventKind::RouterFreeze:
      freeze_as(ev.a, true, detail);
      return {true, detail};
    case EventKind::RouterRestart:
      freeze_as(ev.a, false, detail);
      return {true, detail};
    case EventKind::Burst:
      start_burst(ev, detail);
      return {true, detail};
    case EventKind::PlantValley: {
      const bool ok = plant_valley(detail);
      return {ok, detail};
    }
    case EventKind::PlantStaleRoute: {
      const bool ok = plant_stale_route(detail);
      return {ok, detail};
    }
  }
  return {false, "unknown event"};
}

Report Engine::run(const Plan& plan) {
  MIFO_EXPECTS(em_ != nullptr);
  dp::Network& net = *em_->net;
  Report report;
  report.verify_mode = cfg_.verify_mode;
  report.log.reserve(plan.events.size());

  // Unified timeline: plan events interleaved with pending reconvergence
  // snapshots, processed in time order on top of the packet event queue.
  std::vector<SimTime> checks;  // ascending
  std::size_t ei = 0;
  std::size_t ci = 0;
  const double inf = std::numeric_limits<double>::infinity();
  while (ei < plan.events.size() || ci < checks.size()) {
    const SimTime t_ev = ei < plan.events.size() ? plan.events[ei].t : inf;
    const SimTime t_ck = ci < checks.size() ? checks[ci] : inf;
    if (t_ck < t_ev) {
      net.run_until(t_ck);
      ++ci;
      // Collapse snapshots that landed at (numerically) the same instant.
      while (ci < checks.size() && checks[ci] <= t_ck) ++ci;
      const bool clean = snapshot(report, t_ck);
      if (!report.log.empty()) {
        report.log.back().clean_reconverged =
            report.log.back().clean_reconverged && clean;
      }
      continue;
    }
    const Event& ev = plan.events[ei];
    net.run_until(ev.t);
    // Baseline before the fault lands: apply() can drop queued packets
    // synchronously (a pulled cable flushes its queue), and that flush IS
    // the first impact.
    const std::uint64_t drops_before = drop_sum();
    const auto [applied, detail] = apply(ev);
    AppliedEvent ae;
    ae.event = ev;
    ae.applied = applied;
    ae.detail = detail;
    last_event_index_ = report.log.size();
    if (applied) {
      ++report.events_applied;
      if (shard_) shard_->add(m_events_);
      Span sp;
      sp.event_index = report.log.size();
      sp.kind = ev.kind;
      sp.t_injected = ev.t;
      pending_impacts_.push_back(
          PendingImpact{report.spans.size(), drops_before});
      report.spans.push_back(sp);
      if (obs::Tracer* tr = net.tracer()) {
        obs::TraceEvent te;
        te.t = ev.t;
        te.kind = obs::TraceKind::ChaosEvent;
        te.router = ev.a.valid() ? ev.a.value() : 0;
        te.value = static_cast<double>(static_cast<int>(ev.kind));
        tr->record(te);
      }
      if (applied && is_recovery(ev.kind)) {
        // Pair with the latest unresolved failure of the recovery's
        // counterpart kind on the same subject.
        for (std::size_t i = report.log.size(); i-- > 0;) {
          const AppliedEvent& prior = report.log[i];
          if (!prior.applied || prior.recovery_latency >= 0.0) continue;
          const auto rec = recovery_of(prior.event.kind);
          if (!rec || *rec != ev.kind || prior.event.a != ev.a) continue;
          const bool pending_already =
              std::any_of(pending_recoveries_.begin(),
                          pending_recoveries_.end(),
                          [i](const PendingRecovery& p) {
                            return p.fail_index == i;
                          });
          if (pending_already) continue;
          pending_recoveries_.push_back(
              PendingRecovery{i, prior.event.t, ev.t});
          for (Span& fsp : report.spans) {
            if (fsp.event_index == i) {
              fsp.t_reconverged = ev.t;
              break;
            }
          }
          break;
        }
      }
    }
    report.log.push_back(std::move(ae));
    ++ei;
    if (applied) {
      // Route-delta accounting must precede the immediate snapshot so the
      // recompute set lands in the verifier's dirty set for this check.
      note_route_delta(report, report.spans.back());
      report.log.back().clean_immediate = snapshot(report, ev.t);
      // The immediate snapshot's verify cost is this event's footprint.
      Span& sp = report.spans.back();
      sp.dirty_destinations = last_cost_.dirty_destinations;
      sp.states_explored = last_cost_.states_explored;
      sp.cache_hits = last_cost_.cache_hits;
      report.log.back().clean_reconverged = true;
      checks.push_back(ev.t + kReconvDelay);
    }
  }

  // Drain: run past the plan end so daemons settle and queues empty, then
  // take the final quiescent snapshot.
  net.run_until(plan.duration + kDrainMargin);
  snapshot(report, plan.duration + kDrainMargin);

  if (planted_violation_) {
    // A planted ring is expected to be caught; "safe" keeps meaning "the
    // verifier found nothing", so the caller sees safe == false here.
    MIFO_ASSERT(!report.safe || !cfg_.verify);
  }
  return report;
}

}  // namespace mifo::chaos
