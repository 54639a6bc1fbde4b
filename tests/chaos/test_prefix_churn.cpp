// Prefix churn in a live emulation (testbed::withdraw_prefix and
// reinstall_prefix, driven directly or through a chaos plan): withdrawing an
// origin must drop it from every remote daemon and tear both the default
// route and any daemon-programmed alt_port out of every remote FIB;
// re-announcing must restore end-to-end reachability and reinstall exactly
// what the builder installed. The alt-missing-from-rib lint is the
// tripwire: if eviction ever skips the alt, the lint must fire.

#include <gtest/gtest.h>

#include <algorithm>

#include "bgp/route_store.hpp"
#include "chaos/engine.hpp"
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

/// Every router's FIB entry for `prefix` in `got` is `want`'s: present
/// alike, the same default port and, with `alts`, the same alt port.
void expect_same_fib(const testbed::Emulation& got,
                     const testbed::Emulation& want, dp::Addr prefix,
                     bool alts) {
  ASSERT_EQ(got.net->num_routers(), want.net->num_routers());
  for (std::uint32_t r = 0; r < want.net->num_routers(); ++r) {
    const auto fg = got.net->router(RouterId(r)).fib().lookup(prefix);
    const auto fw = want.net->router(RouterId(r)).fib().lookup(prefix);
    ASSERT_EQ(fg.has_value(), fw.has_value()) << "router " << r;
    if (!fw) continue;
    EXPECT_EQ(fg->out_port, fw->out_port) << "router " << r;
    if (alts) {
      EXPECT_EQ(fg->alt_port, fw->alt_port) << "router " << r;
    }
  }
}

/// Every daemon knows `prefix` in `got` as in `want`: the same
/// PrefixRoutes, the alternatives compared as a set (the election ignores
/// their order).
void expect_same_daemon_routes(const testbed::Emulation& got,
                               const testbed::Emulation& want,
                               dp::Addr prefix) {
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
  const auto& victim = f.em.hosts[0];

  // Converged baseline: every router routes the prefix, every daemon
  // knows it.
  EXPECT_EQ(f.routers_with_route(victim.addr), f.em.net->num_routers());
  for (const auto& daemon : f.em.daemons) {
    EXPECT_NE(find_prefix(*daemon, victim.addr), nullptr)
        << "AS" << daemon->wiring().as.value();
  }

  ASSERT_TRUE(testbed::withdraw_prefix(f.em, victim.as));

  // Every route gone; only the origin router keeps local host delivery and
  // only the origin's daemon keeps the prefix. The other prefixes are
  // untouched.
  for (const auto& daemon : f.em.daemons) {
    EXPECT_EQ(find_prefix(*daemon, victim.addr) != nullptr,
              daemon->wiring().as == victim.as)
        << "AS" << daemon->wiring().as.value();
  }
  EXPECT_EQ(f.routers_with_route(victim.addr), 1u);
  EXPECT_EQ(f.routers_with_route(f.em.hosts[1].addr),
            f.em.net->num_routers());

  // A non-owner originates nothing to withdraw.
  AsId non_owner = AsId::invalid();
  for (std::uint32_t as = 0; as < f.g.num_ases() && !non_owner.valid();
       ++as) {
    bool owns = false;
    for (const auto& att : f.em.hosts) owns = owns || att.as == AsId(as);
    if (!owns) non_owner = AsId(as);
  }
  ASSERT_TRUE(non_owner.valid());
  EXPECT_FALSE(testbed::withdraw_prefix(f.em, non_owner));
  EXPECT_EQ(f.routers_with_route(f.em.hosts[1].addr),
            f.em.net->num_routers());
}

TEST(RouteControl, ReannounceRestoresReachability) {
  auto f = Fixture::make(9, /*mifo=*/false);
  const auto& victim = f.em.hosts[0];

  ASSERT_TRUE(testbed::withdraw_prefix(f.em, victim.as));
  testbed::reinstall_prefix(f.em, f.g, victim.as);
  EXPECT_EQ(f.routers_with_route(victim.addr), f.em.net->num_routers());

  // End-to-end proof: a flow towards the restored prefix completes.
  dp::FlowParams fp;
  fp.src = f.em.hosts[1].host;
  fp.dst = victim.host;
  fp.size = 200 * 1000;
  f.em.net->start_flow(fp);
  f.em.net->run_to_completion(30.0);
  EXPECT_TRUE(f.em.net->flows()[0].done);
}

TEST(RouteControl, WithdrawEvictsDaemonProgrammedAlt) {
  auto f = Fixture::make(11, /*mifo=*/true);
  dp::Network& net = *f.em.net;
  // Let every daemon tick once so alts are programmed where RIBs allow.
  net.run_until(0.03);
  const auto& victim = f.em.hosts[0];

  ASSERT_TRUE(testbed::withdraw_prefix(f.em, victim.as));

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

  testbed::reinstall_prefix(f.em, f.g, victim.as);
  EXPECT_EQ(f.routers_with_route(victim.addr), net.num_routers());
}

TEST(RouteControl, SkippedAltEvictionTripsTheLint) {
  // Negative control for the tripwire: reinstall a default+alt for a
  // withdrawn prefix behind the eviction's back — the daemon no longer
  // knows the prefix, so alt-missing-from-rib MUST fire.
  auto f = Fixture::make(13, /*mifo=*/true);
  dp::Network& net = *f.em.net;
  net.run_until(0.03);
  const auto& victim = f.em.hosts[0];
  ASSERT_TRUE(testbed::withdraw_prefix(f.em, victim.as));

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

TEST(RouteControl, RoundTripReinstallsTheBuiltState) {
  auto f = Fixture::make(19, /*mifo=*/true, /*expand=*/true);
  dp::Network& net = *f.em.net;
  net.run_until(0.03);  // daemons program alts the withdrawal must evict
  const auto& victim = f.em.hosts[0];
  // An expanded owner: local delivery runs over intra-AS ports.
  ASSERT_GT(f.em.wirings[victim.as.value()].routers.size(), 1u);

  ASSERT_TRUE(testbed::withdraw_prefix(f.em, victim.as));
  testbed::reinstall_prefix(f.em, f.g, victim.as);

  const Fixture fresh = Fixture::make(19, /*mifo=*/false, /*expand=*/true);
  ASSERT_EQ(fresh.em.hosts[0].addr, victim.addr);
  expect_same_fib(f.em, fresh.em, victim.addr, /*alts=*/true);
  expect_same_daemon_routes(f.em, fresh.em, victim.addr);
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
  const auto& victim = f.em.hosts[0];
  const bgp::RouteStore base(f.g, victim.as);
  AsId a = AsId::invalid();
  for (std::uint32_t as = 0; as < f.g.num_ases() && !a.valid(); ++as) {
    if (AsId(as) != victim.as && base.best(AsId(as)).valid()) a = AsId(as);
  }
  ASSERT_TRUE(a.valid());
  const AsId b = base.best(a).next_hop;

  std::string error;
  const auto plan = parse_plan(
      "duration 0.5\n"
      "at 0.1 withdraw " + std::to_string(victim.as.value()) + "\n" +
          "at 0.2 link-down " + std::to_string(a.value()) + " " +
          std::to_string(b.value()) + "\n" +
          "at 0.3 reannounce " + std::to_string(victim.as.value()) + "\n",
      error);
  ASSERT_TRUE(plan.has_value()) << error;
  EngineConfig cfg;
  cfg.verify_mode = VerifyMode::Differential;
  Engine engine(f.em, f.g, cfg);
  const Report report = engine.run(*plan);
  ASSERT_EQ(report.log.size(), 3u);
  for (const AppliedEvent& ae : report.log) {
    EXPECT_TRUE(ae.applied) << ae.event.to_string();
  }
  // Three routing events, each agreeing with a from-scratch rebuild on
  // the masked graph at every snapshot.
  EXPECT_EQ(report.route_events, 3u);
  EXPECT_EQ(report.route_differential_mismatches, 0u);

  const Fixture fresh = Fixture::make(23, /*mifo=*/false, /*expand=*/true);
  ASSERT_EQ(fresh.em.hosts[0].addr, victim.addr);
  // The daemons re-elect alts after the re-announcement, so only the
  // default ports and the daemons' knowledge must match the fresh build.
  expect_same_fib(f.em, fresh.em, victim.addr, /*alts=*/false);
  expect_same_daemon_routes(f.em, fresh.em, victim.addr);
}

}  // namespace
}  // namespace mifo::chaos
