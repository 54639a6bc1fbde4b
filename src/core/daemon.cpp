#include "core/daemon.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/contracts.hpp"
#include "dataplane/change_log.hpp"
#include "obs/trace.hpp"

namespace mifo::core {

const AsWiring::Egress* AsWiring::egress_to(AsId neighbor) const {
  for (const auto& e : egresses) {
    if (e.neighbor == neighbor) return &e;
  }
  return nullptr;
}

PortId AsWiring::intra_port(RouterId from, RouterId to) const {
  for (const auto& ip : intra) {
    if (ip.from == from && ip.to == to) return ip.port;
  }
  return PortId::invalid();
}

PortId AsWiring::port_towards(RouterId r, RouterId exit, PortId port) const {
  if (r == exit) return port;
  const PortId via = intra_port(r, exit);
  // Full-mesh iBGP guarantees a direct intra link; a missing one means the
  // wiring the builder produced is inconsistent.
  MIFO_EXPECTS(via.valid());
  return via;
}

MifoDaemon::MifoDaemon(AsWiring wiring, std::vector<PrefixRoutes> prefixes)
    : wiring_(std::move(wiring)),
      prefixes_(std::move(prefixes)),
      slots_(prefixes_.size()),
      spare_(wiring_.egresses.size(), 0.0) {
  const std::size_t nr = wiring_.routers.size();
  const std::size_t ne = wiring_.egresses.size();
  std::unordered_map<RouterId, std::uint32_t> pos;
  for (std::uint32_t i = 0; i < nr; ++i) pos.emplace(wiring_.routers[i], i);

  // Router x router intra ports, then router x egress forwarding ports: what
  // port_towards answers, resolved once. A missing intra link stays invalid
  // and trips program_alt only if an election ever needs it.
  std::vector<PortId> intra(nr * nr, PortId::invalid());
  for (const auto& ip : wiring_.intra) {
    const auto from = pos.find(ip.from);
    const auto to = pos.find(ip.to);
    if (from == pos.end() || to == pos.end()) continue;
    PortId& slot = intra[from->second * nr + to->second];
    if (!slot.valid()) slot = ip.port;
  }
  port_towards_.assign(nr * ne, PortId::invalid());
  egress_at_.resize(nr);
  for (std::uint32_t e = 0; e < ne; ++e) {
    const AsWiring::Egress& eg = wiring_.egresses[e];
    egress_of_.emplace_back(eg.neighbor, e);
    const auto exit = pos.find(eg.router);
    if (exit == pos.end()) continue;
    for (std::uint32_t r = 0; r < nr; ++r) {
      port_towards_[r * ne + e] =
          r == exit->second ? eg.port : intra[r * nr + exit->second];
    }
    std::vector<std::uint32_t>& at = egress_at_[exit->second];
    if (at.size() <= eg.port.value()) at.resize(eg.port.value() + 1, kNone);
    if (at[eg.port.value()] == kNone) at[eg.port.value()] = e;
  }
  std::sort(egress_of_.begin(), egress_of_.end());
  MIFO_EXPECTS(std::adjacent_find(egress_of_.begin(), egress_of_.end(),
                                  [](const auto& a, const auto& b) {
                                    return a.first == b.first;
                                  }) == egress_of_.end());
}

std::uint32_t MifoDaemon::class_of(const PrefixRoutes& pr) {
  if (!pr.default_neighbor.valid() || pr.alternatives.empty()) return kNone;
  key_.clear();
  for (const AsId alt : pr.alternatives) {
    const auto it = std::lower_bound(
        egress_of_.begin(), egress_of_.end(), alt,
        [](const auto& entry, AsId as) { return entry.first < as; });
    if (it != egress_of_.end() && it->first == alt) key_.push_back(it->second);
  }
  std::sort(key_.begin(), key_.end());
  key_.erase(std::unique(key_.begin(), key_.end()), key_.end());
  if (const auto it = class_index_.find(key_); it != class_index_.end()) {
    return it->second;
  }
  const auto c = static_cast<std::uint32_t>(classes_.size());
  classes_.push_back(AltClass{key_, kNone, {}});
  classes_.back().choice = elect(classes_.back());
  class_index_.emplace(key_, c);
  return c;
}

std::uint32_t MifoDaemon::elect(const AltClass& cls) const {
  // Most spare capacity wins; a tie goes to the lowest AS id; a down link
  // (negative spare) is not a candidate.
  std::uint32_t choice = kNone;
  Mbps best_spare = -1.0;
  for (const std::uint32_t e : cls.egresses) {
    if (spare_[e] < 0.0) continue;
    if (spare_[e] > best_spare ||
        (spare_[e] == best_spare && choice != kNone &&
         wiring_.egresses[e].neighbor < wiring_.egresses[choice].neighbor)) {
      best_spare = spare_[e];
      choice = e;
    }
  }
  return choice;
}

void MifoDaemon::tick(dp::Network& net, SimTime now) {
  if (frozen_) return;  // the XORP process is dead; nothing reprograms

  // (1) Sample every inter-AS link once; border routers "communicate the
  // measurement results with each other" over iBGP — modeled as the shared
  // spare[] table. A down link advertises no spare (its byte counters would
  // read as a fully idle, fully spare link otherwise); with the iBGP session
  // dropped the table keeps the last adverts received before the drop.
  obs::Tracer* const tr = net.tracer();
  for (std::size_t i = 0; i < wiring_.egresses.size(); ++i) {
    const auto& e = wiring_.egresses[i];
    if (!net.router(e.router).port(e.port).up) {
      spare_[i] = -1.0;
      continue;
    }
    spare_[i] = stale_ ? monitor_.last(net, e.router, e.port).spare
                       : monitor_.sample(net, e.router, e.port, now).spare;
    if (tr) {
      obs::TraceEvent ev;
      ev.t = now;
      ev.kind = obs::TraceKind::SpareAdvert;
      ev.router = e.router.value();
      ev.port = e.port.value();
      ev.value = spare_[i];
      tr->record(ev);
    }
  }

  // (2) Elect once per alternative-set class, collecting the members of the
  // classes whose choice changed (a rescan revisits every prefix anyway).
  std::vector<std::uint32_t> changed;
  for (AltClass& cls : classes_) {
    const std::uint32_t choice = elect(cls);
    if (choice == cls.choice) continue;
    cls.choice = choice;
    if (!rescan_) {
      changed.insert(changed.end(), cls.members.begin(), cls.members.end());
    }
  }

  // (3) Reprogram the prefixes whose election changed, in prefix order. A
  // prefix with no electable alternative (all candidate links down) gets its
  // alt cleared rather than left stale — deflecting onto a dead link would
  // just convert congestion drops into link-down drops.
  if (rescan_) {
    for (AltClass& cls : classes_) cls.members.clear();
    for (std::uint32_t i = 0; i < prefixes_.size(); ++i) {
      Slot& slot = slots_[i];
      if (slot.cls == kUnresolved) slot.cls = class_of(prefixes_[i]);
      if (slot.cls == kNone) continue;
      classes_[slot.cls].members.push_back(i);
      write(net, i);
    }
    rescan_ = false;
  } else {
    std::sort(changed.begin(), changed.end());
    for (const std::uint32_t i : changed) write(net, i);
  }

  // (4) Flow re-evaluation with hysteresis on every router of the AS, fed
  // with the monitor's rate-based utilization of that router's egresses.
  for (std::size_t r = 0; r < wiring_.routers.size(); ++r) {
    dp::Router& router = net.router(wiring_.routers[r]);
    const std::vector<std::uint32_t>& at = egress_at_[r];
    auto util = [this, &router, &at](PortId p) {
      const std::uint32_t e = p.value() < at.size() ? at[p.value()] : kNone;
      if (e == kNone) return 0.0;
      const Mbps cap = router.port(p).rate;
      return cap > 0.0 ? 1.0 - spare_[e] / cap : 1.0;
    };
    router.reevaluate_flows(net, util);
  }
}

void MifoDaemon::write(dp::Network& net, std::uint32_t i) {
  Slot& slot = slots_[i];
  const std::uint32_t choice = classes_[slot.cls].choice;
  if (choice == slot.written) return;
  slot.written = choice;
  if (choice == kNone) {
    clear_alt(net, prefixes_[i].prefix);
  } else {
    program_alt(net, prefixes_[i].prefix, choice);
  }
}

void MifoDaemon::program_alt(dp::Network& net, dp::Addr prefix,
                             std::uint32_t egress) {
  const std::size_t ne = wiring_.egresses.size();
  for (std::size_t r = 0; r < wiring_.routers.size(); ++r) {
    dp::Fib& fib = net.router(wiring_.routers[r]).fib();
    if (!fib.contains(prefix)) continue;
    const PortId port = port_towards_[r * ne + egress];
    MIFO_EXPECTS(port.valid());  // see AsWiring::port_towards
    fib.set_alt(prefix, port);
  }
}

void MifoDaemon::clear_alt(dp::Network& net, dp::Addr prefix) {
  for (const RouterId r : wiring_.routers) {
    net.router(r).fib().clear_alt(prefix);
  }
}

std::size_t MifoDaemon::index_of(dp::Addr prefix) const {
  for (std::size_t i = 0; i < prefixes_.size(); ++i) {
    if (prefixes_[i].prefix == prefix) return i;
  }
  return prefixes_.size();
}

void MifoDaemon::update_prefix(dp::Network& net, PrefixRoutes pr) {
  if (auto* log = net.change_log()) log->note_daemon(wiring_.as, pr.prefix);
  clear_alt(net, pr.prefix);
  const std::size_t i = index_of(pr.prefix);
  if (i < prefixes_.size()) {
    prefixes_[i] = std::move(pr);
    slots_[i] = Slot{};
  } else {
    prefixes_.push_back(std::move(pr));
    slots_.emplace_back();
  }
  rescan_ = true;
}

void MifoDaemon::remove_prefix(dp::Network& net, dp::Addr prefix) {
  if (auto* log = net.change_log()) log->note_daemon(wiring_.as, prefix);
  clear_alt(net, prefix);
  const std::size_t i = index_of(prefix);
  if (i == prefixes_.size()) return;
  prefixes_.erase(prefixes_.begin() + static_cast<std::ptrdiff_t>(i));
  slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(i));
  rescan_ = true;
}

void MifoDaemon::restart(dp::Network& net) {
  for (const RouterId r : wiring_.routers) {
    dp::Fib& fib = net.router(r).fib();
    std::vector<dp::Addr> with_alt;
    for (const auto& [dst, fe] : fib) {
      if (fe.alt_port.valid()) with_alt.push_back(dst);
    }
    for (const dp::Addr dst : with_alt) fib.clear_alt(dst);
  }
  for (Slot& slot : slots_) slot.written = kUnwritten;
  rescan_ = true;
}

void MifoDaemon::forget(dp::Addr prefix) {
  const std::size_t i = index_of(prefix);
  if (i == prefixes_.size()) return;
  slots_[i].written = kUnwritten;
  rescan_ = true;
}

AsId MifoDaemon::elected_alt(dp::Addr prefix) const {
  const std::size_t i = index_of(prefix);
  if (i == prefixes_.size()) return AsId::invalid();
  const std::uint32_t e = slots_[i].written;
  return e < wiring_.egresses.size() ? wiring_.egresses[e].neighbor
                                     : AsId::invalid();
}

}  // namespace mifo::core
