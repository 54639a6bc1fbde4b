// Unit tests of the change-recording layer that feeds incremental
// verification: the dp::ChangeLog hooks in Fib/Network/MifoDaemon (which
// must record value changes only — the re-announcement install pass and the
// daemon's clears rewrite values the FIB already holds), and the verifier's
// dirty mapping of each record kind, including the port-flip invariance the
// whole design rests on: Port::up never reaches the deflection graph, so
// link faults alone dirty nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "dataplane/change_log.hpp"
#include "testbed/emulation.hpp"
#include "topo/generator.hpp"
#include "verify/deflection_graph.hpp"
#include "verify/incremental.hpp"
#include "verify/valley.hpp"

namespace mifo {
namespace {

struct Deployment {
  testbed::Emulation em;
  topo::AsGraph g;
};

Deployment deploy(std::uint64_t seed, std::size_t num_ases) {
  topo::GeneratorParams gp;
  gp.num_ases = num_ases;
  gp.num_tier1 = 5;
  gp.seed = seed;
  Deployment d;
  d.g = topo::generate_topology(gp);
  testbed::EmulationBuilder builder(d.g, std::vector<bool>(num_ases, false));
  constexpr std::size_t kDests = 4;
  for (std::size_t i = 0; i < kDests; ++i) {
    builder.attach_host(
        AsId(static_cast<std::uint32_t>(i * (num_ases - 1) / (kDests - 1))));
  }
  d.em = builder.finalize();
  dp::Network& net = *d.em.net;
  for (std::size_t i = 0; i < net.num_routers(); ++i) {
    net.router(RouterId(static_cast<std::uint32_t>(i)))
        .config()
        .mifo_enabled = true;
  }
  for (const auto& daemon : d.em.daemons) daemon->tick(net, 0.0);
  return d;
}

TEST(ChangeLog, FibHooksRecordOnlyValueChanges) {
  Deployment d = deploy(3, 20);
  dp::Network& net = *d.em.net;
  dp::ChangeLog log;
  net.attach_change_log(&log);

  const dp::Addr dst = d.em.hosts.front().addr;
  RouterId r = RouterId::invalid();
  for (std::size_t i = 0; i < net.num_routers(); ++i) {
    const RouterId cand(static_cast<std::uint32_t>(i));
    if (net.router(cand).fib().contains(dst)) {
      r = cand;
      break;
    }
  }
  ASSERT_TRUE(r.valid());
  dp::Fib& fib = net.router(r).fib();
  const dp::FibEntry before = *fib.lookup(dst);

  // Identical rewrites — the install pass and the daemon's clears do this —
  // record nothing.
  fib.set_route(dst, before.out_port);
  fib.set_alt(dst, before.alt_port);
  if (!before.alt_port.valid()) fib.clear_alt(dst);
  EXPECT_TRUE(log.empty()) << "no-op writes must not dirty anything";

  // Value changes record exactly once each. Pick an alt port id distinct
  // from both current ports (the Fib stores ids blindly, no port lookup).
  const PortId other(std::max(before.out_port.value(),
                              before.alt_port.valid() ? before.alt_port.value()
                                                      : 0) +
                     1);
  fib.set_alt(dst, other);
  EXPECT_EQ(log.fib.size(), 1u);
  fib.set_alt(dst, other);  // same value again
  EXPECT_EQ(log.fib.size(), 1u);
  fib.clear_alt(dst);
  EXPECT_EQ(log.fib.size(), 2u);
  fib.clear_alt(dst);  // already cleared
  EXPECT_EQ(log.fib.size(), 2u);
  EXPECT_TRUE(fib.remove(dst));
  EXPECT_EQ(log.fib.size(), 3u);
  EXPECT_FALSE(fib.remove(dst));
  EXPECT_EQ(log.fib.size(), 3u);
  for (const auto& fc : log.fib) {
    EXPECT_EQ(fc.router, r);
    EXPECT_EQ(fc.dst, dst);
  }
}

TEST(ChangeLog, PortDaemonAndConfigRecords) {
  Deployment d = deploy(5, 20);
  dp::Network& net = *d.em.net;
  dp::ChangeLog log;
  net.attach_change_log(&log);

  const auto& eg = d.em.wirings[1].egresses.front();
  net.set_port_up(eg.router, eg.port, false);
  ASSERT_EQ(log.ports.size(), 1u);
  EXPECT_EQ(log.ports.front().router, eg.router);
  EXPECT_EQ(log.ports.front().port, eg.port);
  net.set_port_up(eg.router, eg.port, false);  // already down: early-out
  EXPECT_EQ(log.ports.size(), 1u);
  net.set_port_up(eg.router, eg.port, true);
  EXPECT_EQ(log.ports.size(), 2u);

  const dp::Addr prefix = d.em.hosts.front().addr;
  d.em.daemons[1]->remove_prefix(net, prefix);
  ASSERT_GE(log.daemons.size(), 1u);
  EXPECT_EQ(log.daemons.front().as, AsId(1));
  EXPECT_EQ(log.daemons.front().prefix, prefix);
}

// One row per record kind: what one record dirties for the loop/valley/lint
// proofs and for the blackhole analysis (docs/VERIFICATION.md's table).
TEST(ChangeLog, DirtyMappingPerRecordKind) {
  Deployment d = deploy(7, 20);
  const auto routers = d.em.net->routers();
  const dp::Addr dst0 = d.em.hosts[0].addr;
  const dp::Addr dst1 = d.em.hosts[1].addr;
  std::vector<dp::Addr> r0_dests;
  for (const auto& [dst, fe] : routers[0].fib()) r0_dests.push_back(dst);
  std::sort(r0_dests.begin(), r0_dests.end());
  ASSERT_FALSE(r0_dests.empty());

  struct Row {
    const char* kind;
    std::function<void(dp::ChangeLog&)> record;
    std::vector<dp::Addr> dirty;       ///< for the loop/valley/lint proofs
    std::vector<dp::Addr> port_dirty;  ///< for the blackhole analysis
  };
  const std::vector<Row> rows = {
      {"fib", [&](dp::ChangeLog& l) { l.note_fib(RouterId(2), dst0); },
       {dst0}, {}},
      {"daemon", [&](dp::ChangeLog& l) { l.note_daemon(AsId(3), dst1); },
       {dst1}, {}},
      // Every destination in the router's current FIB.
      {"config", [](dp::ChangeLog& l) { l.note_config(RouterId(0)); },
       r0_dests, {}},
      // Nothing for the graph proofs, which never read Port::up.
      {"port", [](dp::ChangeLog& l) { l.note_port(RouterId(0), PortId(0)); },
       {}, r0_dests},
  };
  for (const Row& row : rows) {
    dp::ChangeLog log;
    row.record(log);
    EXPECT_EQ(verify::dirty_destinations(log, routers), row.dirty) << row.kind;
    EXPECT_EQ(verify::port_dirty_destinations(log, routers), row.port_dirty)
        << row.kind;
  }

  // Records of several kinds merge ascending and unique.
  dp::ChangeLog log;
  for (const Row& row : rows) row.record(log);
  log.note_fib(RouterId(5), dst0);
  std::vector<dp::Addr> expect = r0_dests;
  expect.push_back(dst0);
  expect.push_back(dst1);
  std::sort(expect.begin(), expect.end());
  expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
  EXPECT_EQ(verify::dirty_destinations(log, routers), expect);
  EXPECT_EQ(verify::port_dirty_destinations(log, routers), r0_dests);
}

// The soundness cornerstone: flipping link state — with no FIB or config
// reaction — leaves every loop and valley verdict bit-identical, because
// the deflection graph never reads Port::up.
TEST(ChangeLog, PortFlipsPreserveLoopAndValleyVerdicts) {
  Deployment d = deploy(11, 30);
  dp::Network& net = *d.em.net;

  const auto loop_before = verify::check_loop_freedom(net);
  const auto valley_before = verify::check_valley_freedom(net);

  std::size_t downed = 0;
  for (std::size_t as = 0; as < d.em.wirings.size(); as += 3) {
    for (const auto& eg : d.em.wirings[as].egresses) {
      net.set_port_up(eg.router, eg.port, false);
      ++downed;
    }
  }
  ASSERT_GT(downed, 0u);

  const auto loop_after = verify::check_loop_freedom(net);
  const auto valley_after = verify::check_valley_freedom(net);
  EXPECT_EQ(loop_before.loop_free, loop_after.loop_free);
  EXPECT_EQ(loop_before.cycles.size(), loop_after.cycles.size());
  EXPECT_EQ(loop_before.stats.states, loop_after.stats.states);
  EXPECT_EQ(loop_before.stats.edges, loop_after.stats.edges);
  EXPECT_EQ(valley_before.valley_free, valley_after.valley_free);
  EXPECT_EQ(valley_before.stats.states, valley_after.stats.states);
}

}  // namespace
}  // namespace mifo
