// RouteController tests — BGP withdrawal/re-announcement propagated into a
// live emulation: withdrawing an origin must empty its delta-table segment
// and tear both the default route and any daemon-programmed alt_port out of
// every remote FIB; re-announcing must restore end-to-end reachability and
// reinstall exactly what the builder installed. The alt-missing-from-rib
// lint is the tripwire: if eviction ever skips the alt, the lint must fire.

#include <gtest/gtest.h>

#include <algorithm>

#include "bgp/route_store.hpp"
#include "chaos/route_control.hpp"
#include "testbed/emulation.hpp"
#include "testbed/sharded_emulation.hpp"
#include "topo/generator.hpp"
#include "verify/lint.hpp"

namespace mifo::chaos {
namespace {

struct Fixture {
  topo::AsGraph g;
  testbed::Emulation em;

  /// `expand`: every AS of degree >= 2 becomes one border router per
  /// adjacency, so installs walk intra-AS ports.
  static Fixture make(std::uint64_t seed, bool mifo, bool expand = false) {
    topo::GeneratorParams gp;
    gp.num_ases = 24;
    gp.num_tier1 = 3;
    gp.seed = seed;
    Fixture f{topo::generate_topology(gp), {}};
    testbed::EmulationBuilder builder(
        f.g, expand ? testbed::scaled_expand_mask(f.g, f.g.num_ases())
                    : std::vector<bool>(f.g.num_ases(), false));
    builder.attach_host(AsId(2));
    builder.attach_host(
        AsId(static_cast<std::uint32_t>(f.g.num_ases() - 1)));
    builder.attach_host(
        AsId(static_cast<std::uint32_t>(f.g.num_ases() / 2)));
    f.em = builder.finalize();
    if (mifo) {
      std::vector<AsId> all;
      for (std::uint32_t i = 0; i < f.g.num_ases(); ++i) {
        all.push_back(AsId(i));
      }
      f.em.enable_mifo(all, dp::RouterConfig{});
    }
    return f;
  }

  [[nodiscard]] std::size_t routers_with_route(dp::Addr dst) const {
    std::size_t n = 0;
    for (std::uint32_t r = 0; r < em.net->num_routers(); ++r) {
      n += em.net->router(RouterId(r)).fib().lookup(dst).has_value() ? 1 : 0;
    }
    return n;
  }
};

const core::PrefixRoutes* find_prefix(const core::MifoDaemon& daemon,
                                      dp::Addr prefix) {
  for (const core::PrefixRoutes& pr : daemon.prefixes()) {
    if (pr.prefix == prefix) return &pr;
  }
  return nullptr;
}

std::vector<AsId> sorted(std::vector<AsId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// `prefix` is installed in `got` exactly as in `want`: every router's FIB
/// entry, and every daemon's PrefixRoutes with the alternatives compared as
/// a set (the election ignores their order).
void expect_same_install(const testbed::Emulation& got,
                         const testbed::Emulation& want, dp::Addr prefix) {
  ASSERT_EQ(got.net->num_routers(), want.net->num_routers());
  for (std::uint32_t r = 0; r < want.net->num_routers(); ++r) {
    const auto fg = got.net->router(RouterId(r)).fib().lookup(prefix);
    const auto fw = want.net->router(RouterId(r)).fib().lookup(prefix);
    ASSERT_EQ(fg.has_value(), fw.has_value()) << "router " << r;
    if (!fw) continue;
    EXPECT_EQ(fg->out_port, fw->out_port) << "router " << r;
    EXPECT_EQ(fg->alt_port, fw->alt_port) << "router " << r;
  }
  ASSERT_EQ(got.daemons.size(), want.daemons.size());
  for (std::size_t as = 0; as < want.daemons.size(); ++as) {
    const auto* pg = find_prefix(*got.daemons[as], prefix);
    const auto* pw = find_prefix(*want.daemons[as], prefix);
    ASSERT_EQ(pg != nullptr, pw != nullptr) << "AS" << as;
    if (pw == nullptr) continue;
    EXPECT_EQ(pg->default_neighbor, pw->default_neighbor) << "AS" << as;
    EXPECT_EQ(sorted(pg->alternatives), sorted(pw->alternatives))
        << "AS" << as;
  }
}

TEST(RouteControl, WithdrawEvictsRibAndFib) {
  auto f = Fixture::make(7, /*mifo=*/false);
  RouteController ctl(f.em, f.g);
  const auto& victim = f.em.hosts[0];

  // Converged baseline: every router routes the prefix, every AS holds a
  // best route to the origin in the delta table.
  EXPECT_EQ(f.routers_with_route(victim.addr), f.em.net->num_routers());
  for (std::uint32_t as = 0; as < f.g.num_ases(); ++as) {
    EXPECT_TRUE(
        ctl.delta().segment(victim.as)->store.best(AsId(as)).valid())
        << "AS" << as;
  }

  ASSERT_TRUE(ctl.withdraw(victim.as));
  EXPECT_TRUE(ctl.delta().withdrawn(victim.as));

  // Every route gone (the origin's own with the withdrawal); only the
  // origin router keeps local host delivery. The other prefixes are
  // untouched.
  for (std::uint32_t as = 0; as < f.g.num_ases(); ++as) {
    EXPECT_FALSE(
        ctl.delta().segment(victim.as)->store.best(AsId(as)).valid())
        << "AS" << as;
  }
  EXPECT_EQ(f.routers_with_route(victim.addr), 1u);
  EXPECT_EQ(f.routers_with_route(f.em.hosts[1].addr),
            f.em.net->num_routers());

  // Idempotence / non-owners.
  EXPECT_FALSE(ctl.withdraw(victim.as));
  AsId non_owner = AsId::invalid();
  for (std::uint32_t as = 0; as < f.g.num_ases() && !non_owner.valid();
       ++as) {
    bool owns = false;
    for (const auto& att : f.em.hosts) owns = owns || att.as == AsId(as);
    if (!owns) non_owner = AsId(as);
  }
  ASSERT_TRUE(non_owner.valid());
  EXPECT_FALSE(ctl.withdraw(non_owner));
  EXPECT_EQ(ctl.delta().epoch(), 1u);  // the refused withdrawals moved nothing
}

TEST(RouteControl, ReannounceRestoresReachability) {
  auto f = Fixture::make(9, /*mifo=*/false);
  RouteController ctl(f.em, f.g);
  const auto& victim = f.em.hosts[0];

  ASSERT_TRUE(ctl.withdraw(victim.as));
  EXPECT_FALSE(ctl.reannounce(f.em.hosts[1].as));  // not withdrawn
  ASSERT_TRUE(ctl.reannounce(victim.as));
  EXPECT_FALSE(ctl.delta().withdrawn(victim.as));
  EXPECT_EQ(f.routers_with_route(victim.addr), f.em.net->num_routers());

  // End-to-end proof: a flow towards the restored prefix completes.
  dp::FlowParams fp;
  fp.src = f.em.hosts[1].host;
  fp.dst = victim.host;
  fp.size = 200 * 1000;
  f.em.net->start_flow(fp);
  f.em.net->run_to_completion(30.0);
  EXPECT_TRUE(f.em.net->flows()[0].done);
  // Two applied routing events, and the delta table agrees with a rebuild.
  EXPECT_EQ(ctl.delta().epoch(), 2u);
  EXPECT_TRUE(ctl.delta().differential_check().empty());
}

TEST(RouteControl, WithdrawEvictsDaemonProgrammedAlt) {
  auto f = Fixture::make(11, /*mifo=*/true);
  dp::Network& net = *f.em.net;
  // Let every daemon tick once so alts are programmed where RIBs allow.
  net.run_until(0.03);
  RouteController ctl(f.em, f.g);
  const auto& victim = f.em.hosts[0];

  ASSERT_TRUE(ctl.withdraw(victim.as));

  // No remote FIB may retain a default or alt for the withdrawn prefix
  // (the alt rides on the entry; Fib::remove drops both).
  for (std::uint32_t r = 0; r < net.num_routers(); ++r) {
    if (net.router(RouterId(r)).as() == victim.as) continue;
    EXPECT_FALSE(net.router(RouterId(r)).fib().lookup(victim.addr))
        << "router " << r;
  }

  // And the lint pass agrees: nothing dangles.
  std::vector<std::pair<dp::Addr, AsId>> owners;
  for (const auto& att : f.em.hosts) owners.emplace_back(att.addr, att.as);
  const auto issues =
      verify::lint_deployment(net, f.g, f.em.daemons, owners);
  for (const auto& iss : issues) {
    EXPECT_NE(iss.kind, verify::LintKind::AltMissingFromRib)
        << iss.to_string();
  }

  ASSERT_TRUE(ctl.reannounce(victim.as));
  EXPECT_EQ(f.routers_with_route(victim.addr), net.num_routers());
}

TEST(RouteControl, SkippedAltEvictionTripsTheLint) {
  // Negative control for the tripwire: reinstall a default+alt for a
  // withdrawn prefix behind the controller's back — the daemon no longer
  // knows the prefix, so alt-missing-from-rib MUST fire.
  auto f = Fixture::make(13, /*mifo=*/true);
  dp::Network& net = *f.em.net;
  net.run_until(0.03);
  RouteController ctl(f.em, f.g);
  const auto& victim = f.em.hosts[0];
  ASSERT_TRUE(ctl.withdraw(victim.as));

  // Find a router outside the origin AS with >= 2 eBGP ports and fake the
  // "forgot to evict" state.
  bool planted = false;
  for (std::uint32_t r = 0; r < net.num_routers() && !planted; ++r) {
    dp::Router& router = net.router(RouterId(r));
    if (router.as() == victim.as) continue;
    PortId def = PortId::invalid();
    PortId alt = PortId::invalid();
    for (std::uint32_t p = 0; p < router.num_ports(); ++p) {
      if (router.port(PortId(p)).kind != dp::PortKind::Ebgp) continue;
      if (!def.valid()) {
        def = PortId(p);
      } else if (!alt.valid() && router.port(PortId(p)).neighbor_as !=
                                     router.port(def).neighbor_as) {
        alt = PortId(p);
      }
    }
    if (!def.valid() || !alt.valid()) continue;
    router.fib().set_route(victim.addr, def);
    router.fib().set_alt(victim.addr, alt);
    planted = true;
  }
  ASSERT_TRUE(planted);

  std::vector<std::pair<dp::Addr, AsId>> owners;
  for (const auto& att : f.em.hosts) owners.emplace_back(att.addr, att.as);
  const auto issues =
      verify::lint_deployment(net, f.g, f.em.daemons, owners);
  bool fired = false;
  for (const auto& iss : issues) {
    fired = fired || iss.kind == verify::LintKind::AltMissingFromRib;
  }
  EXPECT_TRUE(fired) << "lint failed to catch a stale alt after withdrawal";
}

TEST(RouteControl, DeltaMirrorTracksWithdrawalsAndSessions) {
  auto f = Fixture::make(17, /*mifo=*/true);
  f.em.net->run_until(0.03);
  RouteController ctl(f.em, f.g);
  const auto& victim = f.em.hosts[0];

  // The mirror starts converged: every host prefix tracked, no mismatches.
  EXPECT_TRUE(ctl.delta().tracks(victim.as));
  EXPECT_TRUE(ctl.delta().differential_check().empty());
  EXPECT_EQ(ctl.delta().epoch(), 0u);

  // Withdraw: exactly one destination recomputed, the mirror agrees with
  // a from-scratch rebuild, and the published segment is empty.
  ASSERT_TRUE(ctl.withdraw(victim.as));
  EXPECT_EQ(ctl.delta().epoch(), 1u);
  EXPECT_TRUE(ctl.last_delta_stats().applied);
  EXPECT_EQ(ctl.last_delta_stats().recomputed, 1u);
  EXPECT_TRUE(ctl.delta().withdrawn(victim.as));
  EXPECT_EQ(ctl.delta().segment(victim.as)->store.num_reachable(), 0u);
  EXPECT_TRUE(ctl.delta().differential_check().empty());

  ASSERT_TRUE(ctl.reannounce(victim.as));
  EXPECT_EQ(ctl.delta().epoch(), 2u);
  EXPECT_FALSE(ctl.delta().withdrawn(victim.as));
  EXPECT_GT(ctl.delta().segment(victim.as)->store.num_reachable(), 0u);

  // Session flap: the mirror masks the edge, stays oracle-identical, and
  // the recomputed set is a strict subset of the tracked universe unless
  // every tracked destination actually held a row across the edge.
  const AsId a = victim.as;
  const AsId b = f.g.neighbors(a).front().as;
  ASSERT_TRUE(ctl.session_down(a, b));
  EXPECT_EQ(ctl.delta().epoch(), 3u);
  EXPECT_TRUE(ctl.delta().session_disabled(a, b));
  EXPECT_TRUE(ctl.delta().differential_check().empty());
  const auto& st = ctl.last_delta_stats();
  EXPECT_EQ(st.recomputed + st.patched + st.unchanged, st.destinations);
  EXPECT_EQ(st.epoch, ctl.delta().epoch());

  ASSERT_TRUE(ctl.session_up(a, b));
  EXPECT_FALSE(ctl.delta().session_disabled(a, b));
  EXPECT_TRUE(ctl.delta().differential_check().empty());

  // Duplicate session events are no-ops at the controller level too.
  ASSERT_TRUE(ctl.session_down(a, b));
  EXPECT_FALSE(ctl.session_down(b, a));
  EXPECT_FALSE(ctl.last_delta_stats().applied);
  ASSERT_TRUE(ctl.session_up(b, a));
}

TEST(RouteControl, RoundTripReinstallsTheBuiltState) {
  auto f = Fixture::make(19, /*mifo=*/true, /*expand=*/true);
  dp::Network& net = *f.em.net;
  net.run_until(0.03);  // daemons program alts the withdrawal must evict
  RouteController ctl(f.em, f.g);
  const auto& victim = f.em.hosts[0];
  // An expanded owner: local delivery runs over intra-AS ports.
  ASSERT_GT(f.em.wirings[victim.as.value()].routers.size(), 1u);

  ASSERT_TRUE(ctl.withdraw(victim.as));
  ASSERT_TRUE(ctl.reannounce(victim.as));

  const Fixture fresh = Fixture::make(19, /*mifo=*/false, /*expand=*/true);
  ASSERT_EQ(fresh.em.hosts[0].addr, victim.addr);
  expect_same_install(f.em, fresh.em, victim.addr);
  // Remote expanded ASes reach their egress over intra-AS ports too.
  std::size_t remote_intra = 0;
  for (std::uint32_t r = 0; r < net.num_routers(); ++r) {
    const dp::Router& router = net.router(RouterId(r));
    const auto fe = router.fib().lookup(victim.addr);
    if (router.as() == victim.as || !fe) continue;
    remote_intra +=
        router.port(fe->out_port).kind == dp::PortKind::Ibgp ? 1 : 0;
  }
  EXPECT_GT(remote_intra, 0u);
}

TEST(RouteControl, ReannounceInstallsAllSessionsUpDefaults) {
  // FIB defaults model the all-sessions-up state: a session on the
  // prefix's best tree still down at re-announcement moves the delta
  // table's view, not what the install pass programs.
  auto f = Fixture::make(23, /*mifo=*/true, /*expand=*/true);
  f.em.net->run_until(0.03);
  RouteController ctl(f.em, f.g);
  const auto& victim = f.em.hosts[0];
  const bgp::RouteStore base(f.g, victim.as);
  AsId a = AsId::invalid();
  for (std::uint32_t as = 0; as < f.g.num_ases() && !a.valid(); ++as) {
    if (AsId(as) != victim.as && base.best(AsId(as)).valid()) a = AsId(as);
  }
  ASSERT_TRUE(a.valid());
  const AsId b = base.best(a).next_hop;

  ASSERT_TRUE(ctl.withdraw(victim.as));
  ASSERT_TRUE(ctl.session_down(a, b));
  ASSERT_TRUE(ctl.reannounce(victim.as));

  EXPECT_TRUE(ctl.delta().session_disabled(a, b));
  EXPECT_NE(ctl.delta().segment(victim.as)->store.best(a).next_hop, b);
  EXPECT_TRUE(ctl.delta().differential_check().empty());
  const Fixture fresh = Fixture::make(23, /*mifo=*/false, /*expand=*/true);
  ASSERT_EQ(fresh.em.hosts[0].addr, victim.addr);
  expect_same_install(f.em, fresh.em, victim.addr);
}

}  // namespace
}  // namespace mifo::chaos
