// Chaos -> fluid-plane bridge: replays a plan's link-capacity events into
// sim::FluidSim. The fluid simulator has no routers, RIBs or packets, so
// only the capacity-affecting kinds translate (LinkDown/LinkUp as a
// near-zero capacity factor, Degrade/Restore directly); BGP, iBGP, freeze
// and burst events are packet-plane-only and are skipped.
#pragma once

#include <cstddef>

#include "chaos/plan.hpp"
#include "sim/fluid_sim.hpp"

namespace mifo::chaos {

/// Capacity factor a "down" link is scheduled at (FluidSim clamps to the
/// same floor: a dead link crawls instead of dividing by zero).
inline constexpr double kFluidDownFactor = 1e-3;

/// Chaos × workload composition (failure during a flash crowd): schedules
/// the plan's link events on `fs` (both directed links of each adjacency),
/// compressed onto the window [start, start+length] of a streaming run —
/// event times map linearly from [0, plan.duration]. Returns how many plan
/// events translated. Call before run()/run_stream().
std::size_t apply_to_fluid_window(const Plan& plan, const topo::AsGraph& g,
                                  sim::FluidSim& fs, SimTime start,
                                  SimTime length);

}  // namespace mifo::chaos
