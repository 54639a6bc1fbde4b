#include "chaos/engine.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "common/contracts.hpp"
#include "common/stats.hpp"
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

/// Whether a recovery names its failure's subject: the unordered pair
/// {a, b} for link and degrade faults, AS `a` for the others.
bool same_subject(const Event& fail, const Event& rec) {
  switch (fail.kind) {
    case EventKind::LinkDown:
    case EventKind::Degrade:
      return (fail.a == rec.a && fail.b == rec.b) ||
             (fail.a == rec.b && fail.b == rec.a);
    default:
      return fail.a == rec.a;
  }
}

/// The prefix owners the delta table tracks: the host ASes, in host order
/// (the table sorts them and drops duplicates).
std::vector<AsId> host_ases(const testbed::Emulation& em) {
  std::vector<AsId> ases;
  for (const auto& att : em.hosts) ases.push_back(att.as);
  return ases;
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
  const auto count = [](std::size_t n) {
    return obs::Json::num(static_cast<std::uint64_t>(n));
  };
  obs::Json root = obs::Json::object();
  root.set("safe", obs::Json::boolean(safe));
  root.set("checks_run", count(checks_run));
  root.set("checks_clean", count(checks_clean));
  root.set("events_applied", count(events_applied));
  root.set("verify_mode", obs::Json::str(chaos::to_string(verify_mode)));
  root.set("differential_mismatches", count(differential_mismatches));
  root.set("total_dirty_destinations", count(total_dirty_destinations));
  root.set("total_cache_hits", count(total_cache_hits));
  root.set("route_events", count(route_events));
  root.set("total_route_recomputed", count(total_route_recomputed));
  root.set("total_route_patched", count(total_route_patched));
  root.set("total_route_unchanged", count(total_route_unchanged));
  root.set("route_differential_mismatches",
           count(route_differential_mismatches));

  obs::Json events = obs::Json::array();
  std::map<std::string, RunningStats> by_class;  // ordered => stable JSON
  for (const AppliedEvent& ae : log) {
    obs::Json e = obs::Json::object();
    e.set("t", obs::Json::num(ae.event.t));
    e.set("kind", obs::Json::str(chaos::to_string(ae.event.kind)));
    e.set("applied", obs::Json::boolean(ae.applied));
    e.set("detail", obs::Json::str(ae.detail));
    e.set("clean_immediate", obs::Json::boolean(ae.clean_immediate));
    e.set("clean_reconverged", obs::Json::boolean(ae.clean_reconverged));
    for (const auto& [key, t] :
         {std::pair{"t_first_impact", ae.t_first_impact},
          std::pair{"t_reconverged", ae.t_reconverged},
          std::pair{"t_verified", ae.t_verified}}) {
      if (t >= 0.0) e.set(key, obs::Json::num(t));
    }
    if (ae.applied) {
      e.set("dirty_destinations", count(ae.dirty_destinations));
      e.set("states_explored", count(ae.states_explored));
      e.set("cache_hits", count(ae.cache_hits));
      e.set("route_recomputed", count(ae.route_recomputed));
      e.set("route_patched", count(ae.route_patched));
      e.set("route_unchanged", count(ae.route_unchanged));
    }
    events.push(std::move(e));
    // Per-failure-class recovery-latency breakdown: every failure whose
    // paired recovery was verified clean contributes its latency.
    if (ae.t_verified >= 0.0) {
      by_class[chaos::to_string(ae.event.kind)].add(ae.recovery_latency());
    }
  }
  root.set("events", std::move(events));

  obs::Json viols = obs::Json::array();
  for (const Violation& v : violations) {
    obs::Json j = obs::Json::object();
    j.set("t", obs::Json::num(v.t));
    j.set("event_index", count(v.event_index));
    j.set("description", obs::Json::str(v.description));
    viols.push(std::move(j));
  }
  root.set("violations", std::move(viols));

  obs::Json classes = obs::Json::object();
  for (const auto& [kind, agg] : by_class) {
    obs::Json j = obs::Json::object();
    j.set("count", count(agg.count()));
    j.set("mean_s",
          obs::Json::num(agg.sum() / static_cast<double>(agg.count())));
    j.set("min_s", obs::Json::num(agg.min()));
    j.set("max_s", obs::Json::num(agg.max()));
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
      delta_(g, host_ases(em)),
      rng_(hash_combine(cfg.seed, 0xc4a06)) {
  owners_.reserve(em.hosts.size());
  for (const auto& att : em.hosts) owners_.emplace_back(att.addr, att.as);
  if (cfg_.verify_mode != VerifyMode::Full) {
    em.net->attach_change_log(&change_log_);
  }
}

void Engine::attach_registry(obs::Registry& reg, const std::string& labels) {
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
}

std::uint64_t Engine::drop_sum() const {
  std::uint64_t total = 0;
  for (const auto& [reason, count] : em_->net->drop_breakdown()) {
    total += count;
  }
  return total;
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
      report.log[pending_impacts_[i].log_index].t_first_impact = t;
      pending_impacts_[i] = pending_impacts_.back();
      pending_impacts_.pop_back();
    } else {
      ++i;
    }
  }

  const dp::Network& net = *em_->net;
  report.verify_mode = cfg_.verify_mode;
  const bool full = cfg_.verify_mode == VerifyMode::Full;
  const verify::Verdict verdict =
      full ? verify::check_from_scratch(net, *g_, em_->daemons, owners_)
           : inc_.check(net, *g_, em_->daemons, owners_, change_log_);
  bool clean = verdict.clean();
  report.last_stats = verdict.loop.stats;
  last_cost_ = verdict.stats;
  const auto report_all = [&](const char* label, const auto& findings) {
    for (const auto& f : findings) {
      report.violations.push_back(Violation{
          t, last_event_index_, std::string(label) + ": " + f.to_string()});
    }
  };
  report_all("cycle", verdict.loop.cycles);
  report_all("valley", verdict.valley.violations);
  report_all("lint", verdict.lint);
  if (!full) {
    change_log_.clear();
    report.total_dirty_destinations += last_cost_.dirty_destinations;
    report.total_cache_hits += last_cost_.cache_hits;
  }

  if (cfg_.verify_mode == VerifyMode::Differential) {
    // Oracle pass: the untouched full provers on the same state. The
    // incremental verdict must match it finding for finding, in order.
    const verify::Verdict oracle =
        verify::check_from_scratch(net, *g_, em_->daemons, owners_);
    if (!verify::same_findings(verdict, oracle)) {
      ++report.differential_mismatches;
      const auto counts = [](std::size_t inc, std::size_t ref) {
        return std::to_string(inc) + "/" + std::to_string(ref);
      };
      report.violations.push_back(Violation{
          t, last_event_index_,
          "differential: incremental verdict diverged from full prover "
          "(cycles " +
              counts(verdict.loop.cycles.size(), oracle.loop.cycles.size()) +
              ", valleys " +
              counts(verdict.valley.violations.size(),
                   oracle.valley.violations.size()) +
              ", lints " + counts(verdict.lint.size(), oracle.lint.size()) +
              ", loop_free " +
              counts(verdict.loop.loop_free, oracle.loop.loop_free) + ")"});
      clean = false;
    }
    // Route-plane oracle: every delta-maintained CSR segment must be
    // element-identical to a from-scratch Gao-Rexford rebuild on the
    // current masked graph (withdrawn prefixes compare against the
    // all-invalid store). This is what catches plant_stale_route.
    for (const AsId d : delta_.differential_check()) {
      ++report.route_differential_mismatches;
      report.violations.push_back(Violation{
          t, last_event_index_,
          "route-differential: delta segment for AS" +
              std::to_string(d.value()) +
              " diverged from from-scratch rebuild"});
      clean = false;
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
      AppliedEvent& fail = report.log[pending_recoveries_[i]];
      if (fail.t_reconverged <= t) {
        fail.t_verified = t;
        if (shard_) shard_->observe(m_recovery_, fail.recovery_latency());
        pending_recoveries_[i] = pending_recoveries_.back();
        pending_recoveries_.pop_back();
      } else {
        ++i;
      }
    }
  }
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

Engine::Outcome Engine::set_link_state(AsId a, AsId b, bool down) {
  const auto* eg_ab = em_->wirings[a.value()].egress_to(b);
  const auto* eg_ba = em_->wirings[b.value()].egress_to(a);
  if (eg_ab == nullptr || eg_ba == nullptr) return {false, "no such adjacency"};
  for (const auto* eg : {eg_ab, eg_ba}) {
    nest_port_fault(eg->router, eg->port, down);
  }
  Outcome out{true,
              std::string(down ? "down" : "up") + " r" +
                  std::to_string(eg_ab->router.value()) + ":p" +
                  std::to_string(eg_ab->port.value()) + " <-> r" +
                  std::to_string(eg_ba->router.value()) + ":p" +
                  std::to_string(eg_ba->port.value())};
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
    if (adepth++ == 0) {
      out.route = delta_.apply(bgp::RouteEvent::session_down(a, b));
    }
  } else if (adepth > 0 && --adepth == 0) {
    out.route = delta_.apply(bgp::RouteEvent::session_up(a, b));
  }
  return out;
}

Engine::Outcome Engine::scale_link_rate(AsId a, AsId b, double factor) {
  dp::Network& net = *em_->net;
  const auto* eg_ab = em_->wirings[a.value()].egress_to(b);
  const auto* eg_ba = em_->wirings[b.value()].egress_to(a);
  if (eg_ab == nullptr || eg_ba == nullptr) return {false, "no such adjacency"};
  factor = std::clamp(factor, 0.01, 1.0);
  for (const auto* eg : {eg_ab, eg_ba}) {
    dp::Port& port = net.router(eg->router).port(eg->port);
    const std::uint64_t key = port_key(eg->router, eg->port);
    const auto it = nominal_rate_.try_emplace(key, port.rate).first;
    port.rate = it->second * factor;
  }
  return {true, "rate x" + std::to_string(factor)};
}

Engine::Outcome Engine::freeze_as(AsId as, bool freeze) {
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
  core::MifoDaemon& daemon = *em_->daemons[as.value()];
  daemon.set_frozen(freeze);
  // Restart loses the daemon-programmed state: alt ports come back only
  // once the (unfrozen) daemon re-elects them on its next tick.
  if (!freeze) daemon.restart(net);
  return {true, std::to_string(wiring.routers.size()) + " routers, " +
                    std::to_string(ports) + " ports " +
                    (freeze ? "down" : "up")};
}

Engine::Outcome Engine::start_burst(const Event& ev) {
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
    fp.size = static_cast<Bytes>(burst_flow_bytes(ev.value));
    fp.start = net.now();
    net.start_flow(fp);
    ++started;
  }
  return {true, std::to_string(started) + " flows of " +
                    std::to_string(ev.value) + " MB"};
}

Engine::Outcome Engine::withdraw(AsId owner) {
  const bgp::DeltaStats route = delta_.apply(bgp::RouteEvent::withdraw(owner));
  if (!route.applied) return {false, "AS owns no prefix / already withdrawn"};
  testbed::withdraw_prefix(*em_, owner);
  return {true, "origin withdrawn, RIBs reconverged", route};
}

Engine::Outcome Engine::reannounce(AsId owner) {
  const bgp::DeltaStats route =
      delta_.apply(bgp::RouteEvent::reannounce(owner));
  if (!route.applied) return {false, "AS not withdrawn"};
  testbed::reinstall_prefix(*em_, *g_, owner);
  return {true, "origin re-announced, FIBs reinstalled", route};
}

Engine::Outcome Engine::plant_valley() {
  // Same planted violation as `mifo-verify --mutate-valley`.
  const testbed::ValleyRing planted = testbed::plant_valley_ring(*em_, *g_);
  if (!planted.error.empty()) return {false, planted.error};
  planted_violation_ = true;
  const std::vector<AsId>& ring = planted.ring;
  return {true, "ring AS" + std::to_string(ring[0].value()) + "-AS" +
                    std::to_string(ring[1].value()) + "-AS" +
                    std::to_string(ring[2].value()) +
                    " dst=" + std::to_string(planted.dst)};
}

Engine::Outcome Engine::plant_stale_route() {
  // Negative control for the route differential oracle — the routing-plane
  // sibling of plant_valley: withdraw a live origin but make the delta
  // table skip that destination's republish, leaving a stale CSR segment.
  // The FIBs and daemons are evicted honestly, so the loop/valley/lint
  // provers stay clean; only the Differential snapshot's from-scratch
  // Gao-Rexford rebuild can expose the divergence.
  if (cfg_.verify_mode != VerifyMode::Differential) {
    return {false, "requires differential verify mode"};
  }
  for (const auto& [addr, as] : owners_) {
    if (delta_.withdrawn(as) || !delta_.tracks(as)) continue;
    delta_.plant_stale(as);
    Outcome out = withdraw(as);
    MIFO_ASSERT(out.applied);
    planted_violation_ = true;
    out.detail = "stale segment planted for AS" + std::to_string(as.value()) +
                 " (origin withdrawn, republish skipped)";
    return out;
  }
  return {false, "no live tracked origin to withdraw"};
}

Engine::Outcome Engine::apply(const Event& ev) {
  switch (ev.kind) {
    case EventKind::LinkDown:
      return set_link_state(ev.a, ev.b, true);
    case EventKind::LinkUp:
      return set_link_state(ev.a, ev.b, false);
    case EventKind::Degrade:
      return scale_link_rate(ev.a, ev.b, ev.value);
    case EventKind::Restore:
      return scale_link_rate(ev.a, ev.b, 1.0);
    case EventKind::Withdraw:
      return withdraw(ev.a);
    case EventKind::Reannounce:
      return reannounce(ev.a);
    case EventKind::IbgpDrop:
      em_->daemons[ev.a.value()]->set_stale(true);
      return {true, "spare adverts frozen at last values"};
    case EventKind::IbgpRestore:
      em_->daemons[ev.a.value()]->set_stale(false);
      return {true, "fresh spare adverts resume"};
    case EventKind::RouterFreeze:
      return freeze_as(ev.a, true);
    case EventKind::RouterRestart:
      return freeze_as(ev.a, false);
    case EventKind::Burst:
      return start_burst(ev);
    case EventKind::PlantValley:
      return plant_valley();
    case EventKind::PlantStaleRoute:
      return plant_stale_route();
  }
  return {false, "unknown event"};
}

Report Engine::run(const Plan& plan) {
  MIFO_EXPECTS(em_ != nullptr);
  MIFO_EXPECTS(!validate_plan(plan, g_->num_ases()));
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
    Outcome out = apply(ev);
    ++ei;
    last_event_index_ = report.log.size();
    AppliedEvent& ae = report.log.emplace_back();
    ae.event = ev;
    ae.applied = out.applied;
    ae.detail = std::move(out.detail);
    if (!out.applied) continue;
    ++report.events_applied;
    if (shard_) shard_->add(m_events_);
    pending_impacts_.push_back(PendingImpact{last_event_index_, drops_before});
    if (obs::Tracer* tr = net.tracer()) {
      obs::TraceEvent te;
      te.t = ev.t;
      te.kind = obs::TraceKind::ChaosEvent;
      te.router = ev.a.valid() ? ev.a.value() : 0;
      te.value = static_cast<double>(static_cast<int>(ev.kind));
      tr->record(te);
    }
    if (is_recovery(ev.kind)) {
      // Pair with the latest unpaired failure of the recovery's
      // counterpart kind on the same subject.
      for (std::size_t i = last_event_index_; i-- > 0;) {
        AppliedEvent& prior = report.log[i];
        if (!prior.applied || prior.t_reconverged >= 0.0) continue;
        if (recovery_of(prior.event.kind) != ev.kind ||
            !same_subject(prior.event, ev)) {
          continue;
        }
        prior.t_reconverged = ev.t;
        pending_recoveries_.push_back(i);
        break;
      }
    }
    if (out.route.applied) {
      ae.route_recomputed = out.route.recomputed;
      ae.route_patched = out.route.patched;
      ae.route_unchanged = out.route.unchanged;
      ++report.route_events;
      report.total_route_recomputed += out.route.recomputed;
      report.total_route_patched += out.route.patched;
      report.total_route_unchanged += out.route.unchanged;
    }
    ae.clean_immediate = snapshot(report, ev.t);
    // The immediate snapshot's verify cost is this event's footprint.
    ae.dirty_destinations = last_cost_.dirty_destinations;
    ae.states_explored = last_cost_.states_explored;
    ae.cache_hits = last_cost_.cache_hits;
    checks.push_back(ev.t + kReconvDelay);
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
