// Traced-pass replacement for testbed::Emulation::enable_mifo: the same two
// steps (flag every router of each AS MIFO-enabled, register the AS's
// MifoDaemon::tick through Network::add_periodic, in AS order, so event
// order and outcomes match), with each tick wrapped in a timer.
#pragma once

#include <cstdint>

#include "common.hpp"
#include "testbed/emulation.hpp"

namespace e2e {

struct DaemonClock {
  double seconds = 0.0;
  std::uint64_t ticks = 0;
};

inline void enable_mifo_timed(mifo::testbed::Emulation& em,
                              const mifo::dp::RouterConfig& base_config,
                              mifo::SimTime interval, DaemonClock& clock) {
  using namespace mifo;
  for (std::size_t as = 0; as < em.daemons.size(); ++as) {
    for (const RouterId r : em.wirings[as].routers) {
      dp::RouterConfig cfg = base_config;
      cfg.mifo_enabled = true;
      em.net->router(r).config() = cfg;
    }
    core::MifoDaemon* daemon = em.daemons[as].get();
    em.net->add_periodic(interval, [daemon, &clock](dp::Network& n,
                                                    SimTime now) {
      const double t0 = now_s();
      daemon->tick(n, now);
      clock.seconds += now_s() - t0;
      ++clock.ticks;
    });
  }
}

}  // namespace e2e
