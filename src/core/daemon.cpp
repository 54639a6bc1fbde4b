#include "core/daemon.hpp"

#include <algorithm>

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

void MifoDaemon::tick(dp::Network& net, SimTime now) {
  if (frozen_) return;  // the XORP process is dead; nothing reprograms

  // (1) Sample every inter-AS link once; border routers "communicate the
  // measurement results with each other" over iBGP — modeled as the shared
  // spare[] table. A down link advertises no spare (its byte counters would
  // read as a fully idle, fully spare link otherwise); with the iBGP session
  // dropped the table keeps the last adverts received before the drop.
  std::vector<Mbps> spare(wiring_.egresses.size(), 0.0);
  obs::Tracer* const tr = net.tracer();
  for (std::size_t i = 0; i < wiring_.egresses.size(); ++i) {
    const auto& e = wiring_.egresses[i];
    if (!net.router(e.router).port(e.port).up) {
      spare[i] = -1.0;
      continue;
    }
    spare[i] = stale_ ? monitor_.last(net, e.router, e.port).spare
                      : monitor_.sample(net, e.router, e.port, now).spare;
    if (tr) {
      obs::TraceEvent ev;
      ev.t = now;
      ev.kind = obs::TraceKind::SpareAdvert;
      ev.router = e.router.value();
      ev.port = e.port.value();
      ev.value = spare[i];
      tr->record(ev);
    }
  }

  // (2)+(3) Elect and program the best alternative per prefix. A prefix with
  // no electable alternative (all candidate links down) gets its previously
  // programmed alt cleared rather than left stale — deflecting onto a dead
  // link would just convert congestion drops into link-down drops.
  elected_.clear();
  for (const auto& pr : prefixes_) {
    if (!pr.default_neighbor.valid() || pr.alternatives.empty()) continue;
    AsId choice = AsId::invalid();
    Mbps best_spare = -1.0;
    for (const AsId alt : pr.alternatives) {
      for (std::size_t i = 0; i < wiring_.egresses.size(); ++i) {
        if (wiring_.egresses[i].neighbor != alt) continue;
        if (spare[i] < 0.0) continue;  // link down: not a candidate
        if (spare[i] > best_spare ||
            (spare[i] == best_spare && choice.valid() && alt < choice)) {
          best_spare = spare[i];
          choice = alt;
        }
      }
    }
    if (choice.valid()) {
      program_alt(net, pr, choice);
      elected_.emplace_back(pr.prefix, choice);
    } else {
      clear_alt(net, pr.prefix);
    }
  }

  // (4) Flow re-evaluation with hysteresis on every router of the AS, fed
  // with the monitor's rate-based utilization of that router's egresses.
  for (const RouterId r : wiring_.routers) {
    auto util = [this, &net, r, &spare](PortId p) {
      for (std::size_t i = 0; i < wiring_.egresses.size(); ++i) {
        const auto& e = wiring_.egresses[i];
        if (e.router == r && e.port == p) {
          const Mbps cap = net.router(r).port(p).rate;
          return cap > 0.0 ? 1.0 - spare[i] / cap : 1.0;
        }
      }
      return 0.0;
    };
    net.router(r).reevaluate_flows(net, util);
  }
}

void MifoDaemon::program_alt(dp::Network& net, const PrefixRoutes& pr,
                             AsId choice) {
  const auto* egress = wiring_.egress_to(choice);
  MIFO_EXPECTS(egress != nullptr);
  for (const RouterId r : wiring_.routers) {
    dp::Fib& fib = net.router(r).fib();
    if (!fib.contains(pr.prefix)) continue;
    fib.set_alt(pr.prefix,
                wiring_.port_towards(r, egress->router, egress->port));
  }
}

void MifoDaemon::clear_alt(dp::Network& net, dp::Addr prefix) {
  for (const RouterId r : wiring_.routers) {
    net.router(r).fib().clear_alt(prefix);
  }
}

void MifoDaemon::update_prefix(dp::Network& net, PrefixRoutes pr) {
  if (auto* log = net.change_log()) log->note_daemon(wiring_.as, pr.prefix);
  clear_alt(net, pr.prefix);
  std::erase_if(elected_,
                [&pr](const auto& e) { return e.first == pr.prefix; });
  for (auto& existing : prefixes_) {
    if (existing.prefix == pr.prefix) {
      existing = std::move(pr);
      return;
    }
  }
  prefixes_.push_back(std::move(pr));
}

void MifoDaemon::remove_prefix(dp::Network& net, dp::Addr prefix) {
  if (auto* log = net.change_log()) log->note_daemon(wiring_.as, prefix);
  clear_alt(net, prefix);
  std::erase_if(prefixes_,
                [prefix](const PrefixRoutes& pr) { return pr.prefix == prefix; });
  std::erase_if(elected_,
                [prefix](const auto& e) { return e.first == prefix; });
}

AsId MifoDaemon::elected_alt(dp::Addr prefix) const {
  for (const auto& [p, as] : elected_) {
    if (p == prefix) return as;
  }
  return AsId::invalid();
}

}  // namespace mifo::core
