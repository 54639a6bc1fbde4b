// Opt-in forwarding-decision tracing: a bounded ring buffer of Algorithm-1
// events (tag set, tag check, deflect, encap, return-detect — Section III /
// Eq. 3) plus the daemon's spare-capacity advertisements between iBGP
// peers. Disabled tracing costs one null-pointer test per hook; enabled
// tracing is O(1) per event with no allocation past the ring itself.
//
// A per-flow filter turns a packet run into an annotated hop-by-hop walk
// (examples/loop_demo.cpp) without drowning in background traffic.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "topo/relationship.hpp"

namespace mifo::obs {

enum class TraceKind : std::uint8_t {
  TagSet,          ///< valley-free tag (re)written at the AS entering point
  TagCheckPass,    ///< Eq. 3 admitted the eBGP alternative
  TagCheckFail,    ///< Eq. 3 refused the eBGP alternative
  ReturnDetected,  ///< line 11: iBGP sender == default next hop
  PinCreated,      ///< flow newly pinned to the alternative
  PinsReleased,    ///< hysteresis released this router's pins
  Encap,           ///< IP-in-IP towards the iBGP peer (lines 12–15)
  Decap,           ///< outer header removed at the iBGP peer
  Deflect,         ///< packet emitted on the alternative port
  Forward,         ///< packet emitted on the default port
  DropValley,      ///< line-20 drop
  DropNoRoute,
  DropTtl,
  SpareAdvert,     ///< daemon advertised a link's spare capacity (III-C)
  ChaosEvent,      ///< fault-injection event applied (src/chaos/)
};

[[nodiscard]] const char* to_string(TraceKind k);

/// Flow id used for events not tied to a packet (SpareAdvert, PinsReleased).
inline constexpr std::uint64_t kNoTraceFlow =
    std::numeric_limits<std::uint64_t>::max();

struct TraceEvent {
  SimTime t = 0.0;
  TraceKind kind = TraceKind::Forward;
  std::uint32_t router = 0;
  std::uint64_t flow = kNoTraceFlow;
  std::uint32_t dst = 0;        ///< destination address (inner header)
  std::uint32_t port = 0;       ///< output / subject port index
  bool tag = false;             ///< valley-free tag at event time
  topo::Rel rel = topo::Rel::Peer;  ///< neighbor relationship (tag checks)
  double value = 0.0;           ///< kind-specific (spare Mbps, pin count…)
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 4096);

  /// Only record packet-scoped events for this flow (control-plane events
  /// like SpareAdvert always pass). Call before the run.
  void set_flow_filter(std::uint64_t flow);

  /// Drop SpareAdvert events at record time. They arrive at daemon-tick
  /// rate on every link, so over a long run they evict entire packet walks
  /// from the ring; users that care about paths rather than control
  /// chatter turn them off.
  void set_keep_spare_adverts(bool keep) { keep_spare_ = keep; }

  /// Cheap pre-check so hook sites can skip event construction.
  [[nodiscard]] bool wants(std::uint64_t flow) const {
    return !filtered_ || flow == filter_flow_ || flow == kNoTraceFlow;
  }

  void record(const TraceEvent& ev);

  /// Events oldest-to-newest (at most `capacity` of them), in recording
  /// order: the order the event loop dispatched them in.
  [[nodiscard]] std::vector<TraceEvent> events() const;
  /// How many recorded events the ring has already overwritten.
  [[nodiscard]] std::uint64_t overwritten() const;

  /// One-line human-readable rendering (loop_demo's annotated walk).
  [[nodiscard]] static std::string describe(const TraceEvent& ev);

 private:
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;       ///< next write slot
  std::uint64_t recorded_ = 0;
  bool filtered_ = false;
  bool keep_spare_ = true;
  std::uint64_t filter_flow_ = kNoTraceFlow;
};

}  // namespace mifo::obs
