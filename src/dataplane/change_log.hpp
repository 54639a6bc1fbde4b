// Append-only record of forwarding-state mutations (the incremental
// verifier's input, DESIGN/VERIFICATION "dirty set").
//
// Every chaos event ultimately lands in the data plane as one of four kinds
// of writes: a FIB entry changed (route install/eviction, alt reprogram), a
// port's link state flipped, a router config knob flipped, or a daemon's
// per-prefix RIB knowledge changed. A ChangeLog attached to a Network (see
// Network::attach_change_log) captures exactly the *value-changing* subset
// of those writes. The MIFO daemon writes alt ports only when an election
// changes, but other writers still rewrite values the FIB already holds:
// the re-announcement install pass sets the owner's local routes again,
// the daemon clears a prefix's alt ports on every router of its AS when its
// RIB knowledge changes (most hold none), and after the daemon forgets
// what it wrote its next tick rewrites every election. Recording raw write
// traffic would dirty destinations no write changed.
//
// verify::IncrementalVerifier::check reads the log at each quiescent point
// and its owner clears it afterwards; dataplane code only appends.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "dataplane/packet.hpp"

namespace mifo::dp {

struct ChangeLog {
  /// A router's FIB entry for `dst` changed value (default route set to a
  /// different port, entry removed, or alt programmed/cleared/retargeted).
  struct FibChange {
    RouterId router;
    Addr dst = kInvalidAddr;
  };

  /// A port's administrative link state flipped (recorded only on actual
  /// up<->down transitions, Network::set_port_up early-outs on no-ops).
  struct PortChange {
    RouterId router;
    PortId port;
  };

  /// A RouterConfig knob changed (e.g. a planted-valley mutation disabling
  /// the Tag-Check). Config writes bypass any hookable setter, so the
  /// mutating site records this explicitly.
  struct ConfigChange {
    RouterId router;
  };

  /// A daemon's RIB knowledge for `prefix` changed (update_prefix /
  /// remove_prefix). The FIB writes those trigger are recorded separately;
  /// this record exists because the lints read the RIB knowledge itself.
  struct DaemonChange {
    AsId as;
    Addr prefix = kInvalidAddr;
  };

  std::vector<FibChange> fib;
  std::vector<PortChange> ports;
  std::vector<ConfigChange> configs;
  std::vector<DaemonChange> daemons;

  void note_fib(RouterId r, Addr dst) { fib.push_back({r, dst}); }
  void note_port(RouterId r, PortId p) { ports.push_back({r, p}); }
  void note_config(RouterId r) { configs.push_back({r}); }
  void note_daemon(AsId as, Addr prefix) { daemons.push_back({as, prefix}); }

  [[nodiscard]] bool empty() const {
    return fib.empty() && ports.empty() && configs.empty() && daemons.empty();
  }
  [[nodiscard]] std::size_t size() const {
    return fib.size() + ports.size() + configs.size() + daemons.size();
  }
  /// Empties the log and frees its buffers: one burst of writes (the
  /// first daemon ticks program every election) would otherwise hold its
  /// capacity for the rest of a run.
  void clear() { *this = ChangeLog{}; }
};

}  // namespace mifo::dp
