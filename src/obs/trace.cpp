#include "obs/trace.hpp"

#include <cstdio>

#include "common/contracts.hpp"

namespace mifo::obs {

const char* to_string(TraceKind k) {
  switch (k) {
    case TraceKind::TagSet:
      return "tag-set";
    case TraceKind::TagCheckPass:
      return "tag-check-pass";
    case TraceKind::TagCheckFail:
      return "tag-check-FAIL";
    case TraceKind::ReturnDetected:
      return "return-detected";
    case TraceKind::PinCreated:
      return "pin-created";
    case TraceKind::PinsReleased:
      return "pins-released";
    case TraceKind::Encap:
      return "encap";
    case TraceKind::Decap:
      return "decap";
    case TraceKind::Deflect:
      return "deflect";
    case TraceKind::Forward:
      return "forward";
    case TraceKind::DropValley:
      return "DROP(valley)";
    case TraceKind::DropNoRoute:
      return "DROP(no-route)";
    case TraceKind::DropTtl:
      return "DROP(ttl)";
    case TraceKind::SpareAdvert:
      return "spare-advert";
    case TraceKind::ChaosEvent:
      return "chaos-event";
  }
  return "?";
}

Tracer::Tracer(std::size_t capacity) : ring_(capacity) {
  MIFO_EXPECTS(capacity > 0);
}

void Tracer::set_flow_filter(std::uint64_t flow) {
  filtered_ = true;
  filter_flow_ = flow;
}

void Tracer::record(const TraceEvent& ev) {
  if (!wants(ev.flow)) return;
  if (!keep_spare_ && ev.kind == TraceKind::SpareAdvert) return;
  ring_[head_] = ev;
  head_ = (head_ + 1) % ring_.size();
  ++recorded_;
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  const std::size_t n =
      recorded_ < ring_.size() ? static_cast<std::size_t>(recorded_)
                               : ring_.size();
  out.reserve(n);
  // Oldest entry: head_ when the ring has wrapped, index 0 otherwise.
  const std::size_t start = recorded_ < ring_.size() ? 0 : head_;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t Tracer::overwritten() const {
  return recorded_ < ring_.size() ? 0 : recorded_ - ring_.size();
}

std::string Tracer::describe(const TraceEvent& ev) {
  char buf[192];
  switch (ev.kind) {
    case TraceKind::TagSet:
      std::snprintf(buf, sizeof(buf),
                    "[%9.6f] r%u %-15s tag:=%d (entered from %s) flow=%llu",
                    ev.t, ev.router, to_string(ev.kind), ev.tag ? 1 : 0,
                    topo::to_string(ev.rel),
                    static_cast<unsigned long long>(ev.flow));
      break;
    case TraceKind::TagCheckPass:
    case TraceKind::TagCheckFail:
      std::snprintf(buf, sizeof(buf),
                    "[%9.6f] r%u %-15s tag=%d vs %s alternative (Eq. 3) "
                    "flow=%llu",
                    ev.t, ev.router, to_string(ev.kind), ev.tag ? 1 : 0,
                    topo::to_string(ev.rel),
                    static_cast<unsigned long long>(ev.flow));
      break;
    case TraceKind::SpareAdvert:
      std::snprintf(buf, sizeof(buf),
                    "[%9.6f] r%u %-15s port=%u spare=%.1f Mbps (iBGP)",
                    ev.t, ev.router, to_string(ev.kind), ev.port, ev.value);
      break;
    case TraceKind::PinsReleased:
      std::snprintf(buf, sizeof(buf), "[%9.6f] r%u %-15s %d pins", ev.t,
                    ev.router, to_string(ev.kind),
                    static_cast<int>(ev.value));
      break;
    case TraceKind::ChaosEvent:
      // `value` carries the chaos::EventKind ordinal; the engine's event
      // log holds the readable form.
      std::snprintf(buf, sizeof(buf), "[%9.6f] %-15s kind=%d subject=%u",
                    ev.t, to_string(ev.kind), static_cast<int>(ev.value),
                    ev.router);
      break;
    default:
      std::snprintf(buf, sizeof(buf),
                    "[%9.6f] r%u %-15s port=%u dst=0x%x flow=%llu", ev.t,
                    ev.router, to_string(ev.kind), ev.port, ev.dst,
                    static_cast<unsigned long long>(ev.flow));
      break;
  }
  return buf;
}

}  // namespace mifo::obs
