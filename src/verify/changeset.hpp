// ChangeSet: dirty-set computation for incremental verification.
//
// The per-destination deflection graph (deflection_graph.hpp) for `dst` is a
// pure function of
//   (a) each router's FIB entry for `dst` (out_port / alt_port),
//   (b) each router's RouterConfig (mifo_enabled, enforce_tag_check),
//   (c) the static port topology: kinds, peers, neighbor relationships.
// It does NOT read Port::up — Algorithm 1's decision logic is link-state
// oblivious; outages reach the prover only via the FIB/RIB reprogramming
// they trigger (daemon re-elections, route evictions), each of which lands
// as a FibChange. The deployment lints additionally read each daemon's
// per-prefix RIB knowledge (d), and every lint issue names the destination
// it concerns, so lints partition by destination exactly like proofs do.
//
// Hence the dirty mapping (soundness argument in docs/VERIFICATION.md):
//   FibChange(r, dst)      -> dst            (invalidates (a))
//   DaemonChange(as, pfx)  -> pfx            (invalidates (d))
//   ConfigChange(r)        -> every dst in r's current FIB (invalidates (b);
//                             a dst that entered/left the FIB since has its
//                             own FibChange record)
//   PortChange(r, p)       -> nothing for loop/valley/lint proofs; every dst
//                             in r's FIB for the blackhole analysis, the one
//                             property that deliberately reads Port::up.
//   RoutingChange(pfx)     -> pfx. Fed straight from the delta route
//                             engine's recompute set (bgp::DeltaStats):
//                             a destination whose route segment was swapped
//                             is dirty even before any FIB write lands.
//
// A ChangeSet accumulates drained dp::ChangeLog records between quiescent
// points and resolves them against the current router snapshot on demand.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "dataplane/change_log.hpp"
#include "dataplane/router.hpp"

namespace mifo::verify {

class ChangeSet {
 public:
  /// Move all records out of `log` into this set (log is cleared).
  void drain(dp::ChangeLog& log);

  /// Direct recording (tests, call sites without a ChangeLog).
  void note_fib(RouterId r, dp::Addr dst) { fib_.push_back({r, dst}); }
  void note_port(RouterId r, PortId p) { ports_.push_back({r, p}); }
  void note_config(RouterId r) { configs_.push_back({r}); }
  void note_daemon(AsId as, dp::Addr prefix) {
    daemons_.push_back({as, prefix});
  }
  /// A delta route recompute touched `prefix`'s segment (no ChangeLog
  /// record type: the routing plane sits above the data-plane log).
  void note_routing(dp::Addr prefix) { routing_.push_back(prefix); }

  void clear();
  [[nodiscard]] bool empty() const {
    return fib_.empty() && ports_.empty() && configs_.empty() &&
           daemons_.empty() && routing_.empty();
  }
  [[nodiscard]] std::size_t size() const {
    return fib_.size() + ports_.size() + configs_.size() + daemons_.size() +
           routing_.size();
  }

  /// Destinations whose loop/valley proofs and lints the recorded changes
  /// can invalidate (FIB + config + daemon records), ascending and unique.
  /// `routers` resolves router-level records against the *current* FIBs.
  [[nodiscard]] std::vector<dp::Addr> dirty_destinations(
      std::span<const dp::Router> routers) const;

  /// Additional destinations only the port-state-sensitive blackhole
  /// analysis must re-prove (PortChange records), ascending and unique.
  [[nodiscard]] std::vector<dp::Addr> port_dirty_destinations(
      std::span<const dp::Router> routers) const;

  /// The recorded FIB changes in log order (the incremental verifier tracks
  /// its destination universe from them).
  [[nodiscard]] std::span<const dp::ChangeLog::FibChange> fib_records() const {
    return fib_;
  }

  [[nodiscard]] std::size_t fib_changes() const { return fib_.size(); }
  [[nodiscard]] std::size_t port_changes() const { return ports_.size(); }
  [[nodiscard]] std::size_t config_changes() const { return configs_.size(); }
  [[nodiscard]] std::size_t daemon_changes() const { return daemons_.size(); }

  /// One-line summary for logs: "fib=3 ports=1 configs=0 daemons=1".
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<dp::ChangeLog::FibChange> fib_;
  std::vector<dp::ChangeLog::PortChange> ports_;
  std::vector<dp::ChangeLog::ConfigChange> configs_;
  std::vector<dp::ChangeLog::DaemonChange> daemons_;
  std::vector<dp::Addr> routing_;
};

}  // namespace mifo::verify
