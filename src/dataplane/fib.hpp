// The forwarding information base with MIFO's `alt_port` extension (Fig. 1).
//
// The paper's prototype adds an `alt_port` attribute to the kernel's
// `struct fib_table`; here a FIB entry maps a destination address to the
// default output port plus the (daemon-maintained) alternative port.
#pragma once

#include <optional>
#include <unordered_map>

#include "common/types.hpp"
#include "dataplane/packet.hpp"

namespace mifo::dp {

struct ChangeLog;

struct FibEntry {
  PortId out_port;                      ///< default path
  PortId alt_port = PortId::invalid();  ///< alternative path (may be unset)
};

class Fib {
 public:
  /// Insert or replace the default route for `dst`.
  void set_route(Addr dst, PortId out_port);

  /// Update only the alternative port (what the MIFO daemon does). The
  /// destination must already have a default route.
  void set_alt(Addr dst, PortId alt_port);

  /// Clear the alternative port.
  void clear_alt(Addr dst);

  /// Remove the entry entirely (BGP withdrawal evicted the route). No-op
  /// when absent; returns whether an entry was removed.
  bool remove(Addr dst);

  [[nodiscard]] std::optional<FibEntry> lookup(Addr dst) const;

  [[nodiscard]] bool contains(Addr dst) const { return table_.contains(dst); }

  [[nodiscard]] std::size_t size() const { return table_.size(); }

  /// Number of entries with a programmed alternative (verifier/CLI hook).
  [[nodiscard]] std::size_t num_alt_routes() const {
    std::size_t n = 0;
    for (const auto& [dst, fe] : table_) n += fe.alt_port.valid() ? 1 : 0;
    return n;
  }

  /// Iteration support (the daemon's restart wipe, the verifier).
  [[nodiscard]] auto begin() const { return table_.begin(); }
  [[nodiscard]] auto end() const { return table_.end(); }

  /// Mirror value-changing writes into `log` as FibChange records tagged
  /// with `self` (the owning router). Only writes that actually change the
  /// entry are recorded: the re-announcement install pass and the daemon's
  /// clears still write values the FIB already holds — see
  /// dataplane/change_log.hpp. nullptr detaches.
  void attach_change_log(ChangeLog* log, RouterId self) {
    change_log_ = log;
    self_ = self;
  }

 private:
  void note_change(Addr dst);

  std::unordered_map<Addr, FibEntry> table_;
  ChangeLog* change_log_ = nullptr;
  RouterId self_ = RouterId::invalid();
};

}  // namespace mifo::dp
