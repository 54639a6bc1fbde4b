// The class-elected, change-driven MifoDaemon against the reference daemon
// (reference_daemon.hpp): seeded random AS wirings, alternative lists in
// random order, per-tick byte loads, link flaps, stale and frozen spells,
// and update_prefix / remove_prefix calls between ticks. Each side drives
// its own copy of the network; after every tick every prefix's elected_alt,
// every router's FIB alt_port and the FIB change records written so far
// must be equal. Targeted cases cover the two writers that bypass the
// daemon: a router restart and the planted valley ring.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/daemon.hpp"
#include "dataplane/change_log.hpp"
#include "reference_daemon.hpp"
#include "testbed/emulation.hpp"

namespace mifo::core {
namespace {

using oracle::ReferenceDaemon;

/// One AS (id 0) with `routers` border routers in a full iBGP mesh and one
/// eBGP egress per entry of `neighbors`, on router `border[i]` at `rate[i]`.
struct Spec {
  std::size_t routers = 1;
  std::vector<AsId> neighbors;
  std::vector<std::size_t> border;
  std::vector<Mbps> rate;
};

AsWiring build(dp::Network& net, const Spec& s) {
  AsWiring w;
  w.as = AsId(0);
  for (std::size_t i = 0; i < s.routers; ++i) {
    w.routers.push_back(net.add_router(AsId(0)));
  }
  for (std::size_t e = 0; e < s.neighbors.size(); ++e) {
    const RouterId ext = net.add_router(s.neighbors[e]);
    const RouterId r = w.routers[s.border[e]];
    const PortId p = net.connect_ebgp(r, ext, topo::Rel::Peer, s.rate[e]).first;
    w.egresses.push_back({s.neighbors[e], r, p, topo::Rel::Peer});
  }
  for (std::size_t x = 0; x < s.routers; ++x) {
    for (std::size_t y = x + 1; y < s.routers; ++y) {
      const auto [px, py] = net.connect_ibgp(w.routers[x], w.routers[y]);
      w.intra.push_back({w.routers[x], w.routers[y], px});
      w.intra.push_back({w.routers[y], w.routers[x], py});
    }
  }
  return w;
}

/// The daemon and the reference, each on its own identical network.
struct Twin {
  dp::Network net_d;
  dp::Network net_r;
  dp::ChangeLog log_d;
  dp::ChangeLog log_r;
  AsWiring wiring;
  std::unique_ptr<MifoDaemon> daemon;
  std::unique_ptr<ReferenceDaemon> ref;

  Twin(const Spec& s, const std::vector<PrefixRoutes>& prefixes,
       const std::vector<std::vector<bool>>& has_route) {
    wiring = build(net_d, s);
    MIFO_ASSERT(build(net_r, s).egresses.size() == wiring.egresses.size());
    for (std::size_t k = 0; k < prefixes.size(); ++k) {
      install(prefixes[k].prefix, has_route[k]);
    }
    net_d.attach_change_log(&log_d);
    net_r.attach_change_log(&log_r);
    daemon = std::make_unique<MifoDaemon>(wiring, prefixes);
    ref = std::make_unique<ReferenceDaemon>(wiring, prefixes);
  }

  /// Default routes for `prefix` on the routers `has_route` selects.
  void install(dp::Addr prefix, const std::vector<bool>& has_route) {
    for (std::size_t i = 0; i < wiring.routers.size(); ++i) {
      if (!has_route[i]) continue;
      for (dp::Network* n : {&net_d, &net_r}) {
        n->router(wiring.routers[i]).fib().set_route(prefix, PortId(0));
      }
    }
  }

  template <typename F>
  void both(F&& f) {
    f(net_d);
    f(net_r);
  }

  void tick(SimTime now) {
    daemon->tick(net_d, now);
    ref->tick(net_r, now);
  }

  /// Everything the two sides must agree on, after any step.
  void expect_same(const std::string& where) const {
    const auto got = daemon->prefixes();
    const auto& want = ref->prefixes();
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].prefix, want[i].prefix) << where;
      EXPECT_EQ(daemon->elected_alt(want[i].prefix),
                ref->elected_alt(want[i].prefix))
          << where << " prefix " << want[i].prefix;
    }
    for (const RouterId r : wiring.routers) {
      const dp::Fib& fd = net_d.router(r).fib();
      const dp::Fib& fr = net_r.router(r).fib();
      ASSERT_EQ(fd.size(), fr.size()) << where;
      for (const auto& [dst, fe] : fr) {
        const auto got_fe = fd.lookup(dst);
        ASSERT_TRUE(got_fe.has_value()) << where;
        EXPECT_EQ(got_fe->alt_port, fe.alt_port)
            << where << " router " << r.value() << " dst " << dst;
      }
    }
    ASSERT_EQ(log_d.fib.size(), log_r.fib.size()) << where;
    for (std::size_t i = 0; i < log_r.fib.size(); ++i) {
      EXPECT_EQ(log_d.fib[i].router, log_r.fib[i].router) << where << " #" << i;
      EXPECT_EQ(log_d.fib[i].dst, log_r.fib[i].dst) << where << " #" << i;
    }
    ASSERT_EQ(log_d.daemons.size(), log_r.daemons.size()) << where;
  }
};

/// Random knowledge for `prefix`: a local prefix, no alternatives, or a
/// default plus alternatives in random order — drawn from a few shared sets
/// so that prefixes share classes, sometimes with a neighbor no egress
/// reaches.
PrefixRoutes random_routes(Rng& rng, dp::Addr prefix,
                           const std::vector<AsId>& pool,
                           const std::vector<std::vector<AsId>>& shared) {
  PrefixRoutes pr{prefix, AsId::invalid(), {}};
  if (rng.bernoulli(0.1)) return pr;  // local delivery
  pr.default_neighbor = pool[rng.bounded(pool.size())];
  if (rng.bernoulli(0.1)) return pr;  // no alternatives
  std::vector<AsId> alts;
  if (rng.bernoulli(0.6)) {
    alts = shared[rng.bounded(shared.size())];
  } else {
    for (const AsId a : pool) {
      if (rng.bernoulli(0.4)) alts.push_back(a);
    }
  }
  if (rng.bernoulli(0.15)) alts.push_back(AsId(999));  // no egress to it
  std::erase(alts, pr.default_neighbor);
  rng.shuffle(alts);
  pr.alternatives = std::move(alts);
  return pr;
}

std::vector<bool> random_presence(Rng& rng, std::size_t routers) {
  std::vector<bool> has(routers);
  for (std::size_t i = 0; i < routers; ++i) has[i] = !rng.bernoulli(0.15);
  return has;
}

class DaemonOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DaemonOracle, ClassElectionMatchesReferenceEveryTick) {
  Rng rng(GetParam() * 0x9e37 + 17);
  Spec s;
  s.routers = 1 + rng.bounded(6);
  const std::size_t ne = 2 + rng.bounded(11);
  std::vector<AsId> ids;
  for (std::uint32_t a = 1; a <= 40; ++a) ids.push_back(AsId(a));
  rng.shuffle(ids);
  const Mbps rates[] = {100.0, 400.0, kGigabit, kGigabit};
  for (std::size_t e = 0; e < ne; ++e) {
    s.neighbors.push_back(ids[e]);
    s.border.push_back(rng.bounded(s.routers));
    s.rate.push_back(rates[rng.bounded(4)]);
  }
  std::vector<std::vector<AsId>> shared(3);
  for (auto& set : shared) {
    for (const AsId a : s.neighbors) {
      if (rng.bernoulli(0.5)) set.push_back(a);
    }
  }

  std::vector<PrefixRoutes> prefixes;
  std::vector<std::vector<bool>> has_route;
  const std::size_t np = 1 + rng.bounded(30);
  for (std::size_t k = 0; k < np; ++k) {
    const dp::Addr prefix = 0x80000000u + static_cast<dp::Addr>(k);
    prefixes.push_back(random_routes(rng, prefix, s.neighbors, shared));
    has_route.push_back(random_presence(rng, s.routers));
  }
  Twin t(s, prefixes, has_route);
  dp::Addr next_prefix = 0x80000000u + static_cast<dp::Addr>(np);

  bool frozen = false;
  for (int step = 0; step < 40; ++step) {
    const std::string where = "step " + std::to_string(step);
    // Loads: zero loads leave equal spare, so ties are common.
    for (const auto& eg : t.wiring.egresses) {
      if (!rng.bernoulli(0.5)) continue;
      const std::uint64_t bytes = rng.bounded(12) * 250'000;
      t.both([&](dp::Network& n) {
        n.router(eg.router).port(eg.port).bytes_sent_total += bytes;
      });
    }
    // Link flaps.
    for (const auto& eg : t.wiring.egresses) {
      if (!rng.bernoulli(0.08)) continue;
      const bool up = !t.net_d.router(eg.router).port(eg.port).up;
      t.both([&](dp::Network& n) { n.set_port_up(eg.router, eg.port, up); });
    }
    // RIB churn between ticks.
    const std::size_t ops = rng.bernoulli(0.3) ? 1 + rng.bounded(3) : 0;
    for (std::size_t op = 0; op < ops; ++op) {
      const auto known = t.ref->prefixes();
      if (rng.bernoulli(0.3) && !known.empty()) {
        const dp::Addr gone = known[rng.bounded(known.size())].prefix;
        t.daemon->remove_prefix(t.net_d, gone);
        t.ref->remove_prefix(t.net_r, gone);
        if (rng.bernoulli(0.5)) {  // testbed::withdraw_prefix evicts FIBs
          t.both([&](dp::Network& n) {
            for (const RouterId r : t.wiring.routers) {
              n.router(r).fib().remove(gone);
            }
          });
        }
      } else {
        dp::Addr prefix = next_prefix;
        if (rng.bernoulli(0.6) && !known.empty()) {
          prefix = known[rng.bounded(known.size())].prefix;
        } else {
          ++next_prefix;
        }
        t.install(prefix, random_presence(rng, s.routers));
        const PrefixRoutes pr = random_routes(rng, prefix, s.neighbors, shared);
        t.daemon->update_prefix(t.net_d, pr);
        t.ref->update_prefix(t.net_r, pr);
      }
    }
    // Stale and frozen spells; a thaw is a restart that wipes alt state.
    if (rng.bernoulli(0.1)) {
      const bool stale = rng.bernoulli(0.5);
      t.daemon->set_stale(stale);
      t.ref->set_stale(stale);
    }
    if (rng.bernoulli(0.08)) {
      frozen = !frozen;
      t.daemon->set_frozen(frozen);
      t.ref->set_frozen(frozen);
      if (!frozen) {
        t.daemon->restart(t.net_d);
        t.ref->wipe_alts(t.net_r);
      }
    }
    t.tick(0.01 * (step + 1));
    t.expect_same(where);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DaemonOracle,
                         ::testing::Range<std::uint64_t>(0, 60));

/// Every alt port the routers of `w` hold for `prefix` is the one the
/// daemon's election implies (cleared when it elected nothing).
void expect_fib_follows_election(const dp::Network& net, const AsWiring& w,
                                 const MifoDaemon& d, dp::Addr prefix) {
  const AsId alt = d.elected_alt(prefix);
  const auto* eg = alt.valid() ? w.egress_to(alt) : nullptr;
  for (const RouterId r : w.routers) {
    const auto fe = net.router(r).fib().lookup(prefix);
    if (!fe) continue;
    const PortId want = eg != nullptr
                            ? w.port_towards(r, eg->router, eg->port)
                            : PortId::invalid();
    EXPECT_EQ(fe->alt_port, want) << "AS " << w.as.value() << " router "
                                  << r.value() << " prefix " << prefix;
  }
}

TEST(DaemonOracleTargeted, RestartReprogramsEveryAltPortOnTheNextTick) {
  Spec s;
  s.routers = 3;
  s.neighbors = {AsId(5), AsId(3), AsId(7), AsId(2)};
  s.border = {0, 1, 2, 1};
  s.rate = {kGigabit, kGigabit, 400.0, kGigabit};
  std::vector<PrefixRoutes> prefixes;
  std::vector<std::vector<bool>> has_route;
  const std::vector<AsId> odd{AsId(7), AsId(3)};
  const std::vector<AsId> even{AsId(2), AsId(7)};
  for (dp::Addr k = 0; k < 6; ++k) {
    prefixes.push_back({0x80000000u + k, AsId(5), k % 2 ? odd : even});
    has_route.push_back({true, true, true});
  }
  Twin t(s, prefixes, has_route);
  t.tick(0.0);
  t.expect_same("before restart");
  std::size_t programmed = 0;
  for (const RouterId r : t.wiring.routers) {
    programmed += t.net_d.router(r).fib().num_alt_routes();
  }
  ASSERT_EQ(programmed, 6u * 3u);

  t.daemon->set_frozen(true);
  t.ref->set_frozen(true);
  t.tick(0.01);  // frozen: nothing moves
  t.daemon->set_frozen(false);
  t.ref->set_frozen(false);
  t.daemon->restart(t.net_d);
  t.ref->wipe_alts(t.net_r);
  for (const RouterId r : t.wiring.routers) {
    EXPECT_EQ(t.net_d.router(r).fib().num_alt_routes(), 0u);
  }
  for (const auto& pr : prefixes) {
    EXPECT_FALSE(t.daemon->elected_alt(pr.prefix).valid());
  }

  // Same (idle) spare as before the restart: the election did not change,
  // yet every alt port must come back.
  t.tick(0.02);
  t.expect_same("after restart");
  for (const auto& pr : prefixes) {
    expect_fib_follows_election(t.net_d, t.wiring, *t.daemon, pr.prefix);
  }
  programmed = 0;
  for (const RouterId r : t.wiring.routers) {
    programmed += t.net_d.router(r).fib().num_alt_routes();
  }
  EXPECT_EQ(programmed, 6u * 3u);
}

TEST(DaemonOracleTargeted, PlantedValleyRingYieldsToTheNextTick) {
  // AS0 is a customer of the peering triangle 1-2-3. Idle links tie, so
  // each ring AS elects its lowest-id alternative towards AS0's prefix; the
  // plant points AS2 at AS3 against its election of AS1.
  topo::AsGraph g(4);
  for (std::uint32_t p = 1; p <= 3; ++p) {
    g.add_provider_customer(AsId(p), AsId(0));
  }
  g.add_peering(AsId(1), AsId(2));
  g.add_peering(AsId(2), AsId(3));
  g.add_peering(AsId(3), AsId(1));
  testbed::EmulationBuilder builder(g, std::vector<bool>(4, false));
  builder.attach_host(AsId(0));
  builder.attach_host(AsId(1));
  auto em = builder.finalize();
  dp::Network& net = *em.net;
  for (const auto& d : em.daemons) d->tick(net, 0.0);

  const auto alts = [&](dp::Addr dst) {
    std::vector<PortId> out;
    for (const RouterId r : {RouterId(1), RouterId(2), RouterId(3)}) {
      out.push_back(net.router(r).fib().lookup(dst)->alt_port);
    }
    return out;
  };
  const dp::Addr dst = em.hosts[0].addr;
  const std::vector<PortId> elected = alts(dst);
  for (const AsId as : {AsId(1), AsId(2), AsId(3)}) {
    ASSERT_TRUE(em.daemons[as.value()]->elected_alt(dst).valid());
  }

  const testbed::ValleyRing planted = testbed::plant_valley_ring(em, g);
  ASSERT_TRUE(planted.error.empty()) << planted.error;
  ASSERT_EQ(planted.dst, dst);
  ASSERT_NE(alts(dst), elected) << "the plant must override some election";

  for (const auto& d : em.daemons) d->tick(net, 0.01);
  EXPECT_EQ(alts(dst), elected);
  for (const AsId as : planted.ring) {
    expect_fib_follows_election(net, em.wirings[as.value()],
                                *em.daemons[as.value()], dst);
  }
}

}  // namespace
}  // namespace mifo::core
