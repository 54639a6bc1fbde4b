// Border router with the MIFO forwarding engine (Algorithm 1).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "dataplane/fib.hpp"
#include "dataplane/packet.hpp"
#include "dataplane/port.hpp"

namespace mifo::dp {

class Network;

struct RouterConfig {
  /// Whether this router runs MIFO (deflects on congestion). Routers with
  /// MIFO disabled behave as plain BGP forwarders, but still honour the
  /// returned-packet rule so deflected traffic is not bounced back.
  bool mifo_enabled = false;
  /// Algorithm 1 drops when the alternative fails the valley-free check
  /// (line 20). For congestion-triggered deflection we instead keep the flow
  /// on the (congested) default unless this faithful-drop flag is set;
  /// returned packets (line 11's sender==nexthop case) always drop when no
  /// admissible alternative exists, since the default would cycle.
  bool drop_on_congested_no_alt = false;
  /// Ablation knob for the paper's "one more bit is enough" rule: when
  /// false, eBGP deflection skips the Eq. 3 Tag-Check entirely (Fig. 2(a)
  /// loops become reachable again). The static verifier models the same
  /// flag, so verifier verdict and packet behaviour stay comparable.
  bool enforce_tag_check = true;
};

struct RouterCounters {
  std::uint64_t forwarded = 0;
  std::uint64_t deflected = 0;        ///< packets sent via alt port
  std::uint64_t encapsulated = 0;     ///< IP-in-IP encaps performed
  std::uint64_t returned_detected = 0;///< line-11 sender==nexthop hits
  std::uint64_t valley_drops = 0;     ///< line-20 drops
  std::uint64_t no_route_drops = 0;
  std::uint64_t ttl_drops = 0;
  std::uint64_t flow_switches = 0;    ///< pin transitions default<->alt
};

class Router {
 public:
  Router(RouterId id, AsId as, Addr addr) : id_(id), as_(as), addr_(addr) {}

  [[nodiscard]] RouterId id() const { return id_; }
  [[nodiscard]] AsId as() const { return as_; }
  [[nodiscard]] Addr addr() const { return addr_; }

  [[nodiscard]] Fib& fib() { return fib_; }
  [[nodiscard]] const Fib& fib() const { return fib_; }

  [[nodiscard]] RouterConfig& config() { return config_; }
  [[nodiscard]] const RouterConfig& config() const { return config_; }

  [[nodiscard]] RouterCounters& counters() { return counters_; }
  [[nodiscard]] const RouterCounters& counters() const { return counters_; }

  [[nodiscard]] std::size_t num_ports() const { return ports_.size(); }
  [[nodiscard]] Port& port(PortId p);
  [[nodiscard]] const Port& port(PortId p) const;
  /// Read-only view of all ports, in PortId order. The static verifier
  /// (src/verify/) walks this to enumerate possible ingress tag states.
  [[nodiscard]] std::span<const Port> ports() const { return ports_; }
  /// Used by Network while wiring topology.
  PortId add_port(Port port);

  /// The MIFO forwarding engine — Algorithm 1 of the paper, plus flow
  /// pinning for the paper's flow-level determinism. `in_port` is invalid
  /// for self-originated packets (none exist today; hosts inject via their
  /// access link).
  void handle_packet(Network& net, Packet p, PortId in_port);

  /// Daemon-tick hook: returns pinned-to-alt flows to the default path when
  /// every eBGP egress of this router has *rate* utilization below the low
  /// watermark (measured by the daemon's LinkMonitor — queue occupancy
  /// drains even on a saturated link, so it cannot drive the return
  /// decision); expires idle pins. `port_utilization(port) -> [0,1]` comes
  /// from the daemon.
  void reevaluate_flows(const Network& net,
                        const std::function<double(PortId)>& port_utilization);

  /// Number of flows currently pinned to the alternative path.
  [[nodiscard]] std::size_t pinned_alt_flows() const;

 private:
  struct FlowPin {
    bool use_alt = false;
    SimTime last_seen = 0.0;
  };

  void emit(Network& net, PortId port, Packet p);

  RouterId id_;
  AsId as_;
  Addr addr_;
  Fib fib_;
  RouterConfig config_;
  RouterCounters counters_;
  std::vector<Port> ports_;
  std::unordered_map<std::uint64_t, FlowPin> pins_;
};

}  // namespace mifo::dp
