// Reference MIFO daemon: the per-prefix election core::MifoDaemon replaced,
// kept as the oracle for its class-elected, change-driven writes.
//
// Every tick it samples the egresses exactly as the daemon does, then, for
// every prefix, scans alternatives x egresses linearly for the most spare
// capacity (a tie goes to the lowest AS id, a down link is no candidate) and
// rewrites the elected alt port on every router of the AS through
// AsWiring::port_towards, or clears it when nothing is electable. Flow
// re-evaluation is left out: it writes no alt port.
#pragma once

#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "core/daemon.hpp"
#include "core/link_monitor.hpp"
#include "dataplane/change_log.hpp"
#include "dataplane/network.hpp"

namespace mifo::core::oracle {

class ReferenceDaemon {
 public:
  ReferenceDaemon(AsWiring wiring, std::vector<PrefixRoutes> prefixes)
      : wiring_(std::move(wiring)), prefixes_(std::move(prefixes)) {}

  void tick(dp::Network& net, SimTime now) {
    if (frozen_) return;
    std::vector<Mbps> spare(wiring_.egresses.size(), 0.0);
    for (std::size_t i = 0; i < wiring_.egresses.size(); ++i) {
      const auto& e = wiring_.egresses[i];
      if (!net.router(e.router).port(e.port).up) {
        spare[i] = -1.0;
        continue;
      }
      spare[i] = stale_ ? monitor_.last(net, e.router, e.port).spare
                        : monitor_.sample(net, e.router, e.port, now).spare;
    }
    elected_.clear();
    for (const auto& pr : prefixes_) {
      if (!pr.default_neighbor.valid() || pr.alternatives.empty()) continue;
      AsId choice = AsId::invalid();
      Mbps best_spare = -1.0;
      for (const AsId alt : pr.alternatives) {
        for (std::size_t i = 0; i < wiring_.egresses.size(); ++i) {
          if (wiring_.egresses[i].neighbor != alt) continue;
          if (spare[i] < 0.0) continue;
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
  }

  [[nodiscard]] AsId elected_alt(dp::Addr prefix) const {
    for (const auto& [p, as] : elected_) {
      if (p == prefix) return as;
    }
    return AsId::invalid();
  }

  [[nodiscard]] const std::vector<PrefixRoutes>& prefixes() const {
    return prefixes_;
  }

  void update_prefix(dp::Network& net, PrefixRoutes pr) {
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

  void remove_prefix(dp::Network& net, dp::Addr prefix) {
    if (auto* log = net.change_log()) log->note_daemon(wiring_.as, prefix);
    clear_alt(net, prefix);
    std::erase_if(prefixes_, [prefix](const PrefixRoutes& pr) {
      return pr.prefix == prefix;
    });
    std::erase_if(elected_,
                  [prefix](const auto& e) { return e.first == prefix; });
  }

  /// The restart wipe as the chaos engine once wrote it: every alt port on
  /// the AS's routers goes, in FIB order. The election list survives; the
  /// next tick rewrites everything anyway.
  void wipe_alts(dp::Network& net) const {
    for (const RouterId r : wiring_.routers) {
      dp::Fib& fib = net.router(r).fib();
      std::vector<dp::Addr> with_alt;
      for (const auto& [dst, fe] : fib) {
        if (fe.alt_port.valid()) with_alt.push_back(dst);
      }
      for (const dp::Addr dst : with_alt) fib.clear_alt(dst);
    }
  }

  void set_frozen(bool frozen) { frozen_ = frozen; }
  void set_stale(bool stale) { stale_ = stale; }

 private:
  void program_alt(dp::Network& net, const PrefixRoutes& pr, AsId choice) {
    const auto* egress = wiring_.egress_to(choice);
    MIFO_EXPECTS(egress != nullptr);
    for (const RouterId r : wiring_.routers) {
      dp::Fib& fib = net.router(r).fib();
      if (!fib.contains(pr.prefix)) continue;
      fib.set_alt(pr.prefix,
                  wiring_.port_towards(r, egress->router, egress->port));
    }
  }

  void clear_alt(dp::Network& net, dp::Addr prefix) {
    for (const RouterId r : wiring_.routers) {
      net.router(r).fib().clear_alt(prefix);
    }
  }

  AsWiring wiring_;
  std::vector<PrefixRoutes> prefixes_;
  LinkMonitor monitor_;
  std::vector<std::pair<dp::Addr, AsId>> elected_;
  bool frozen_ = false;
  bool stale_ = false;
};

}  // namespace mifo::core::oracle
