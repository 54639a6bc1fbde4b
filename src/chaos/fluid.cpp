#include "chaos/fluid.hpp"

#include "common/contracts.hpp"

namespace mifo::chaos {

std::size_t apply_to_fluid_window(const Plan& plan, const topo::AsGraph& g,
                                  sim::FluidSim& fs, SimTime start,
                                  SimTime length) {
  MIFO_EXPECTS(start >= 0.0 && length > 0.0);
  MIFO_EXPECTS(plan.duration > 0.0);
  const double scale = length / plan.duration;
  std::size_t applied = 0;
  for (const Event& ev : plan.events) {
    double factor = 0.0;
    switch (ev.kind) {
      case EventKind::LinkDown:
        factor = kFluidDownFactor;
        break;
      case EventKind::LinkUp:
      case EventKind::Restore:
        factor = 1.0;
        break;
      case EventKind::Degrade:
        factor = ev.value;
        break;
      default:
        continue;  // packet-plane-only event
    }
    const LinkId ab = g.link(ev.a, ev.b);
    if (!ab.valid()) continue;
    const SimTime t = start + ev.t * scale;
    fs.schedule_capacity_event(t, ab, factor);
    fs.schedule_capacity_event(t, g.twin(ab), factor);
    ++applied;
  }
  return applied;
}

}  // namespace mifo::chaos
