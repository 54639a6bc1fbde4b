#include "chaos/plan.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "dataplane/transport.hpp"

namespace mifo::chaos {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::LinkDown:
      return "link-down";
    case EventKind::LinkUp:
      return "link-up";
    case EventKind::Degrade:
      return "degrade";
    case EventKind::Restore:
      return "restore";
    case EventKind::Withdraw:
      return "withdraw";
    case EventKind::Reannounce:
      return "reannounce";
    case EventKind::IbgpDrop:
      return "ibgp-drop";
    case EventKind::IbgpRestore:
      return "ibgp-restore";
    case EventKind::RouterFreeze:
      return "freeze";
    case EventKind::RouterRestart:
      return "restart";
    case EventKind::Burst:
      return "burst";
    case EventKind::PlantValley:
      return "plant-valley";
    case EventKind::PlantStaleRoute:
      return "plant-stale-route";
  }
  return "?";
}

bool is_recovery(EventKind k) {
  return k == EventKind::LinkUp || k == EventKind::Restore ||
         k == EventKind::Reannounce || k == EventKind::IbgpRestore ||
         k == EventKind::RouterRestart;
}

std::optional<EventKind> recovery_of(EventKind k) {
  switch (k) {
    case EventKind::LinkDown:
      return EventKind::LinkUp;
    case EventKind::Degrade:
      return EventKind::Restore;
    case EventKind::Withdraw:
      return EventKind::Reannounce;
    case EventKind::IbgpDrop:
      return EventKind::IbgpRestore;
    case EventKind::RouterFreeze:
      return EventKind::RouterRestart;
    default:
      return std::nullopt;
  }
}

namespace {

/// The shortest text that parses back to exactly `x`.
std::string exact(double x) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof(buf), x).ptr};
}

}  // namespace

std::string Event::to_string() const {
  std::string out = "at " + exact(t) + " " + chaos::to_string(kind);
  const auto as = [](AsId id) { return " " + std::to_string(id.value()); };
  switch (kind) {
    case EventKind::LinkDown:
    case EventKind::LinkUp:
    case EventKind::Restore:
      return out + as(a) + as(b);
    case EventKind::Degrade:
      return out + as(a) + as(b) + " " + exact(value);
    case EventKind::Burst:
      return out + as(a) + as(b) + " " + std::to_string(count) + " " +
             exact(value);
    case EventKind::Withdraw:
    case EventKind::Reannounce:
    case EventKind::IbgpDrop:
    case EventKind::IbgpRestore:
    case EventKind::RouterFreeze:
    case EventKind::RouterRestart:
      return out + as(a);
    case EventKind::PlantValley:
    case EventKind::PlantStaleRoute:
      break;
  }
  return out;
}

double burst_flow_bytes(double size_mb) {
  return std::max(0.001, size_mb) * 1e6;
}

void Plan::normalize() {
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& x, const Event& y) { return x.t < y.t; });
}

namespace {

/// Parses one event (everything after the time) from the token stream.
bool parse_event(std::istringstream& ls, SimTime t, Event& ev,
                 std::string& error) {
  std::string word;
  if (!(ls >> word)) {
    error = "missing event kind";
    return false;
  }
  ev.t = t;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  if (word == "link-down" || word == "link-up" || word == "restore") {
    ev.kind = word == "link-down"  ? EventKind::LinkDown
              : word == "link-up" ? EventKind::LinkUp
                                  : EventKind::Restore;
    if (!(ls >> a >> b)) {
      error = word + ": expected two AS ids";
      return false;
    }
    ev.a = AsId(a);
    ev.b = AsId(b);
  } else if (word == "degrade") {
    ev.kind = EventKind::Degrade;
    if (!(ls >> a >> b >> ev.value)) {
      error = "degrade: expected two AS ids and a factor";
      return false;
    }
    ev.a = AsId(a);
    ev.b = AsId(b);
  } else if (word == "withdraw" || word == "reannounce" ||
             word == "ibgp-drop" || word == "ibgp-restore" ||
             word == "freeze" || word == "restart") {
    ev.kind = word == "withdraw"       ? EventKind::Withdraw
              : word == "reannounce"   ? EventKind::Reannounce
              : word == "ibgp-drop"    ? EventKind::IbgpDrop
              : word == "ibgp-restore" ? EventKind::IbgpRestore
              : word == "freeze"       ? EventKind::RouterFreeze
                                       : EventKind::RouterRestart;
    if (!(ls >> a)) {
      error = word + ": expected an AS id";
      return false;
    }
    ev.a = AsId(a);
  } else if (word == "burst") {
    ev.kind = EventKind::Burst;
    if (!(ls >> a >> b >> ev.count >> ev.value)) {
      error = "burst: expected SRC DST COUNT SIZE_MB";
      return false;
    }
    if (ev.count > kMaxBurstFlows) {
      error = "burst: COUNT " + std::to_string(ev.count) +
              " is above the cap of " + std::to_string(kMaxBurstFlows) +
              " flows";
      return false;
    }
    // Each flow's packet count must fit dp::FlowState::total_pkts.
    const auto max_pkts = std::numeric_limits<std::uint32_t>::max();
    const double max_bytes = double{max_pkts} * dp::FlowParams{}.pkt_size;
    if (!std::isfinite(ev.value) || burst_flow_bytes(ev.value) > max_bytes) {
      std::ostringstream msg;
      msg << "burst: SIZE_MB " << ev.value << " is not finite or needs more"
          << " than " << max_pkts << " packets per flow";
      error = msg.str();
      return false;
    }
    ev.a = AsId(a);
    ev.b = AsId(b);
  } else if (word == "plant-valley") {
    ev.kind = EventKind::PlantValley;
  } else if (word == "plant-stale-route") {
    ev.kind = EventKind::PlantStaleRoute;
  } else {
    error = "unknown event kind: " + word;
    return false;
  }
  return true;
}

}  // namespace

std::optional<Plan> parse_plan(std::istream& in, std::string& error) {
  Plan plan;
  std::string line;
  std::size_t lineno = 0;
  // `every` directives expand against the final duration, so buffer them
  // until the whole file is read (duration may come last).
  struct Every {
    SimTime start;
    SimTime period;
    Event ev;
    std::size_t lineno;
  };
  std::vector<Every> repeats;
  // The engine advances the emulator to every event's time, so an `at` time
  // or a `fail` recovery past `duration` would run it that long. Checked
  // once the whole file is read, like `every`.
  struct Deadline {
    SimTime t;
    const char* what;
    std::size_t lineno;
  };
  std::vector<Deadline> deadlines;

  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word)) continue;  // blank / comment-only line
    std::string sub_error;
    if (word == "duration") {
      if (!(ls >> plan.duration) || plan.duration <= 0.0) {
        sub_error = "duration: expected a positive time";
      }
    } else if (word == "at") {
      SimTime t = 0.0;
      Event ev;
      if (!(ls >> t) || t < 0.0) {
        sub_error = "at: expected a non-negative time";
      } else if (parse_event(ls, t, ev, sub_error)) {
        plan.events.push_back(ev);
        deadlines.push_back({t, "at: time", lineno});
      }
    } else if (word == "every") {
      Every rep{0.0, 0.0, {}, lineno};
      if (!(ls >> rep.start >> rep.period) || rep.period <= 0.0) {
        sub_error = "every: expected START PERIOD";
      } else if (parse_event(ls, rep.start, rep.ev, sub_error)) {
        repeats.push_back(rep);
      }
    } else if (word == "fail") {
      SimTime t = 0.0;
      SimTime mttr = 0.0;
      std::string kw;
      std::string what;
      Event fail;
      if (!(ls >> t >> kw >> mttr >> what) || kw != "mttr" || mttr <= 0.0) {
        sub_error = "fail: expected T mttr M <link|prefix|ibgp|router> ...";
      } else {
        std::uint32_t a = 0;
        std::uint32_t b = 0;
        fail.t = t;
        if (what == "link" && (ls >> a >> b)) {
          fail.kind = EventKind::LinkDown;
          fail.a = AsId(a);
          fail.b = AsId(b);
        } else if (what == "prefix" && (ls >> a)) {
          fail.kind = EventKind::Withdraw;
          fail.a = AsId(a);
        } else if (what == "ibgp" && (ls >> a)) {
          fail.kind = EventKind::IbgpDrop;
          fail.a = AsId(a);
        } else if (what == "router" && (ls >> a)) {
          fail.kind = EventKind::RouterFreeze;
          fail.a = AsId(a);
        } else {
          sub_error = "fail: bad subject '" + what + "'";
        }
        if (sub_error.empty()) {
          plan.events.push_back(fail);
          Event rec = fail;
          rec.t = t + mttr;
          rec.kind = *recovery_of(fail.kind);
          plan.events.push_back(rec);
          deadlines.push_back({rec.t, "fail: recovery time", lineno});
        }
      }
    } else {
      sub_error = "unknown directive: " + word;
    }
    if (!sub_error.empty()) {
      error = "line " + std::to_string(lineno) + ": " + sub_error;
      return std::nullopt;
    }
  }

  for (const Deadline& d : deadlines) {
    if (d.t > plan.duration) {
      std::ostringstream msg;
      msg << "line " << d.lineno << ": " << d.what << " " << d.t
          << " is past the plan's duration " << plan.duration;
      error = msg.str();
      return std::nullopt;
    }
  }
  for (const auto& rep : repeats) {
    std::size_t n = 0;
    for (SimTime t = rep.start; t <= plan.duration; t += rep.period) {
      if (n++ == kMaxEveryEvents) {
        error = "line " + std::to_string(rep.lineno) +
                ": every: expands to more than " +
                std::to_string(kMaxEveryEvents) + " events";
        return std::nullopt;
      }
      Event ev = rep.ev;
      ev.t = t;
      plan.events.push_back(ev);
    }
  }
  plan.normalize();
  return plan;
}

std::optional<Plan> parse_plan(const std::string& text, std::string& error) {
  std::istringstream in(text);
  return parse_plan(in, error);
}

std::string format_plan(const Plan& plan) {
  std::string out = "duration " + exact(plan.duration) + "\n";
  for (const Event& ev : plan.events) out += ev.to_string() + "\n";
  return out;
}

std::optional<Event> validate_plan(const Plan& plan, std::size_t num_ases) {
  const auto outside = [num_ases](AsId as) { return as.value() >= num_ases; };
  for (const Event& ev : plan.events) {
    switch (ev.kind) {
      case EventKind::LinkDown:
      case EventKind::LinkUp:
      case EventKind::Degrade:
      case EventKind::Restore:
      case EventKind::Burst:
        if (outside(ev.a) || outside(ev.b)) return ev;
        break;
      case EventKind::Withdraw:
      case EventKind::Reannounce:
      case EventKind::IbgpDrop:
      case EventKind::IbgpRestore:
      case EventKind::RouterFreeze:
      case EventKind::RouterRestart:
        if (outside(ev.a)) return ev;
        break;
      case EventKind::PlantValley:
      case EventKind::PlantStaleRoute:
        break;
    }
  }
  return std::nullopt;
}

Plan generate_plan(const topo::AsGraph& g, const GenParams& params) {
  // Every generated congestion burst: flows, and MB per flow.
  constexpr std::uint32_t kBurstFlows = 4;
  constexpr double kBurstMb = 4.0;
  MIFO_EXPECTS(g.num_ases() >= 2);
  MIFO_EXPECTS(params.duration > 0.0);
  MIFO_EXPECTS(params.rate > 0.0);
  MIFO_EXPECTS(params.rate * params.duration <=
               static_cast<double>(kMaxEveryEvents));
  MIFO_EXPECTS(params.mttr > 0.0);
  Rng rng(hash_combine(params.seed, 0xc4a05));
  Plan plan;
  plan.duration = params.duration;

  const auto random_adjacency = [&](AsId& a, AsId& b) {
    // Uniform over ASes, then over that AS's adjacencies; every link is
    // reachable and the bias towards low-degree ASes' links is fine for
    // fault injection (stub links fail in the wild too).
    for (int tries = 0; tries < 64; ++tries) {
      const AsId cand(static_cast<std::uint32_t>(rng.bounded(g.num_ases())));
      const auto nbs = g.neighbors(cand);
      if (nbs.empty()) continue;
      a = cand;
      b = nbs[rng.bounded(nbs.size())].as;
      return true;
    }
    return false;
  };
  const auto random_owner = [&]() -> AsId {
    if (!params.prefix_owners.empty()) {
      return params.prefix_owners[rng.bounded(params.prefix_owners.size())];
    }
    return AsId(static_cast<std::uint32_t>(rng.bounded(g.num_ases())));
  };

  // Poisson fault arrivals over [5% .. 70%] of the duration: the head room
  // lets the deployment warm up, the tail room guarantees every repair
  // lands before the plan ends (recovery times are clamped there).
  const SimTime t_lo = 0.05 * params.duration;
  const SimTime t_hi = 0.70 * params.duration;
  const SimTime t_rec_max = 0.90 * params.duration;
  SimTime t = t_lo;
  while (true) {
    t += rng.exponential(params.rate);
    if (t > t_hi) break;
    // Category weights: link faults dominate (they are the paper's headline
    // churn source), the rest share the remainder.
    const std::uint64_t cat = rng.bounded(8);
    Event ev;
    ev.t = t;
    const SimTime t_rec =
        std::min(t + rng.exponential(1.0 / params.mttr), t_rec_max);
    switch (cat) {
      case 0:
      case 1:
      case 2: {  // link down -> up
        if (!random_adjacency(ev.a, ev.b)) continue;
        ev.kind = EventKind::LinkDown;
        break;
      }
      case 3: {  // degrade -> restore
        if (!random_adjacency(ev.a, ev.b)) continue;
        ev.kind = EventKind::Degrade;
        ev.value = rng.uniform(0.05, 0.5);
        break;
      }
      case 4: {  // withdraw -> reannounce
        ev.kind = EventKind::Withdraw;
        ev.a = random_owner();
        break;
      }
      case 5: {  // iBGP stale window
        ev.kind = EventKind::IbgpDrop;
        ev.a = AsId(static_cast<std::uint32_t>(rng.bounded(g.num_ases())));
        break;
      }
      case 6: {  // router freeze -> restart
        ev.kind = EventKind::RouterFreeze;
        ev.a = AsId(static_cast<std::uint32_t>(rng.bounded(g.num_ases())));
        break;
      }
      default: {  // congestion burst (one-shot)
        ev.kind = EventKind::Burst;
        ev.a = AsId(static_cast<std::uint32_t>(rng.bounded(g.num_ases())));
        ev.b = AsId(static_cast<std::uint32_t>(rng.bounded(g.num_ases())));
        ev.count = kBurstFlows;
        ev.value = kBurstMb;
        break;
      }
    }
    plan.events.push_back(ev);
    if (const auto rec_kind = recovery_of(ev.kind)) {
      // A recovery names only its subject, as the DSL writes it.
      plan.events.push_back(
          Event{.t = t_rec, .kind = *rec_kind, .a = ev.a, .b = ev.b});
    }
  }

  plan.normalize();
  return plan;
}

}  // namespace mifo::chaos
