// Chaos recovery — goodput dip and recovery time after a link failure,
// MIFO vs plain BGP (docs/CHAOS.md), the paper's testbed failover
// experiment at emulation scale.
//
// Each arm picks a multihomed stub among the prefix owners, sources every
// flow at its host, and degrades the stub's primary provider link to 5%
// of capacity mid-run (restoring it later). Plain BGP keeps forwarding
// into the shrunken pipe until the link comes back; MIFO routers see the
// egress queue saturate and deflect (customer-tagged, so Eq. 3 permits
// it) onto the second provider, so the goodput dip is shallower and
// recovery does not wait for the repair. Arms (mode x seed) are
// independent emulations and fan out through bench::run_arms; every arm
// also carries the full safety-under-churn verification, so the
// comparison doubles as a chaos-engine soak test.

#include <algorithm>
#include <cmath>
#include <map>

#include "bench_common.hpp"
#include "chaos/engine.hpp"
#include "chaos/plan.hpp"
#include "common/stats.hpp"
#include "testbed/emulation.hpp"

namespace {

using namespace mifo;

constexpr SimTime kFailAt = 0.4;
constexpr SimTime kRestoreAt = 0.9;
constexpr SimTime kDuration = 1.4;
constexpr SimTime kBucket = 0.02;
constexpr double kDegradeTo = 0.05;

struct ChaosArmResult {
  std::string name;
  std::uint64_t seed = 0;
  bool mifo = false;
  double baseline_mbps = 0.0;  ///< mean goodput before the fault
  double dip_mbps = 0.0;       ///< worst bucket during the fault window
  double recovery_s = -1.0;    ///< first return to 90% of baseline
  std::size_t flows_done = 0;
  std::size_t flows_total = 0;
  std::uint64_t delivered = 0;
  std::uint64_t injected = 0;
  chaos::Report report;
};

/// The faulted AS: a multihomed edge AS among the prefix owners. Degrading
/// a tier-1 peering link would prove little — peer-tagged transit traffic
/// fails the Eq. 3 tag check and legally cannot deflect — but traffic
/// entering at a multihomed stub is customer-tagged and may swing to the
/// second provider, which is exactly the paper's testbed failover scenario.
AsId fault_stub(const topo::AsGraph& g, const std::vector<AsId>& owners) {
  AsId edge = owners.front();
  std::size_t best_deg = 0;
  for (const AsId as : owners) {
    const std::size_t d = g.degree(as);
    if (d < 2) continue;  // single-homed: no legal alternative exists
    if (best_deg == 0 || d < best_deg) {
      edge = as;
      best_deg = d;
    }
  }
  return edge;
}

/// Which neighbor AS a packet from `from` towards `dst` actually exits
/// through: follow the installed default route, resolving iBGP hops to the
/// sibling border router that owns the eBGP port. Invalid if the FIB has
/// no route or delivery is local.
AsId egress_neighbor(const dp::Network& net, RouterId from, dp::Addr dst) {
  RouterId r = from;
  for (int hop = 0; hop < 8; ++hop) {
    const dp::Router& router = net.router(r);
    const auto fe = router.fib().lookup(dst);
    if (!fe.has_value()) return AsId::invalid();
    const dp::Port& port = router.port(fe->out_port);
    if (port.kind == dp::PortKind::Ebgp) return port.neighbor_as;
    if (port.kind != dp::PortKind::Ibgp || !port.peer.is_router()) {
      return AsId::invalid();  // host delivery: dst is local
    }
    r = RouterId(port.peer.id);
  }
  return AsId::invalid();
}

ChaosArmResult run_chaos_arm(const bench::Scale& s, std::uint64_t seed,
                             bool mifo, obs::Registry* reg) {
  ChaosArmResult r;
  r.name = std::string(mifo ? "MIFO" : "BGP") + "@s" + std::to_string(seed);
  r.seed = seed;
  r.mifo = mifo;

  topo::GeneratorParams gp;
  gp.num_ases = std::min<std::size_t>(s.topo_n, 48);
  gp.seed = seed;
  const topo::AsGraph g = topo::generate_topology(gp);
  const std::size_t n = g.num_ases();

  testbed::EmulationBuilder builder(g, std::vector<bool>(n, false));
  const std::size_t num_dests = std::min<std::size_t>(s.dest_pool, n);
  std::vector<AsId> owners;
  for (std::size_t i = 0; i < num_dests; ++i) {
    owners.push_back(
        AsId(static_cast<std::uint32_t>(i * (n - 1) / (num_dests - 1))));
    builder.attach_host(owners.back());
  }
  const AsId hot_a = fault_stub(g, owners);
  auto em = builder.finalize();
  dp::Network& net = *em.net;
  if (mifo) {
    std::vector<AsId> all;
    for (std::size_t i = 0; i < n; ++i) {
      all.push_back(AsId(static_cast<std::uint32_t>(i)));
    }
    em.enable_mifo(all, dp::RouterConfig{}, 0.01);
  }
  net.enable_delivery_trace(kBucket);

  // Every flow sources at the faulted stub's host and targets only the
  // prefixes whose installed default exits through the stub's *primary*
  // provider — the provider carrying the plurality of the stub's default
  // routes, resolved from the FIBs themselves, not guessed from degree.
  // Degrading that one link therefore hits 100% of the offered load.
  std::size_t src_idx = 0;
  while (em.hosts[src_idx].as != hot_a) ++src_idx;
  RouterId src_router = RouterId::invalid();
  for (std::uint32_t rid = 0; rid < net.num_routers(); ++rid) {
    const dp::Router& router = net.router(RouterId(rid));
    if (router.as() != hot_a) continue;
    for (std::uint32_t p = 0; p < router.num_ports(); ++p) {
      const dp::Port& port = router.port(PortId(p));
      if (port.kind == dp::PortKind::Host &&
          port.peer == dp::NodeRef::host(em.hosts[src_idx].host)) {
        src_router = RouterId(rid);
      }
    }
  }
  std::map<AsId, std::vector<std::size_t>> dests_by_egress;
  for (std::size_t i = 0; i < em.hosts.size(); ++i) {
    if (i == src_idx) continue;
    const AsId via = egress_neighbor(net, src_router, em.hosts[i].addr);
    if (via.valid()) dests_by_egress[via].push_back(i);
  }
  AsId hot_b = AsId::invalid();
  for (const auto& [via, dests] : dests_by_egress) {
    if (!hot_b.valid() || dests.size() > dests_by_egress[hot_b].size()) {
      hot_b = via;
    }
  }
  const std::vector<std::size_t>& hot_dests = dests_by_egress[hot_b];

  // Sized so the offered load saturates the access link for the whole run:
  // the fault must hit live traffic, and recovery must be observable.
  Rng traffic_rng(hash_combine(seed, 0xbc5));
  const Bytes per_flow = static_cast<Bytes>(
      kGigabit * 1e6 / 8.0 * 1.5 * kDuration / static_cast<double>(s.flows));
  for (std::size_t i = 0; i < s.flows; ++i) {
    dp::FlowParams fp;
    fp.src = em.hosts[src_idx].host;
    fp.dst = em.hosts[hot_dests[i % hot_dests.size()]].host;
    fp.size = per_flow;
    fp.start = traffic_rng.uniform(0.0, 0.25 * kFailAt);
    net.start_flow(fp);
  }

  chaos::Plan plan;
  plan.duration = kDuration;
  chaos::Event fail;
  fail.t = kFailAt;
  fail.kind = chaos::EventKind::Degrade;
  fail.a = hot_a;
  fail.b = hot_b;
  fail.value = kDegradeTo;
  plan.events.push_back(fail);
  chaos::Event restore = fail;
  restore.t = kRestoreAt;
  restore.kind = chaos::EventKind::Restore;
  plan.events.push_back(restore);
  plan.normalize();

  chaos::EngineConfig ec;
  ec.seed = seed;
  chaos::Engine engine(em, g, ec);
  if (reg != nullptr) engine.attach_registry(*reg, "arm=" + r.name);
  r.report = engine.run(plan);
  net.run_to_completion(kDuration + 30.0);

  // Goodput timeline -> dip depth and time back to 90% of baseline.
  const auto& buckets = net.delivery_buckets();
  const auto bucket_mbps = [&](std::size_t i) {
    return to_megabits(buckets[i]) / kBucket;
  };
  const auto idx = [&](SimTime t) {
    return std::min(buckets.size(),
                    static_cast<std::size_t>(t / kBucket));
  };
  double base_sum = 0.0;
  std::size_t base_n = 0;
  for (std::size_t i = idx(0.5 * kFailAt); i < idx(kFailAt); ++i) {
    base_sum += bucket_mbps(i);
    ++base_n;
  }
  r.baseline_mbps = base_n > 0 ? base_sum / static_cast<double>(base_n) : 0.0;
  r.dip_mbps = r.baseline_mbps;
  for (std::size_t i = idx(kFailAt); i < idx(kRestoreAt); ++i) {
    r.dip_mbps = std::min(r.dip_mbps, bucket_mbps(i));
  }
  for (std::size_t i = idx(kFailAt); i < buckets.size(); ++i) {
    if (bucket_mbps(i) >= 0.9 * r.baseline_mbps) {
      r.recovery_s = static_cast<double>(i) * kBucket - kFailAt;
      break;
    }
  }

  for (const auto& f : net.flows()) r.flows_done += f.done ? 1 : 0;
  r.flows_total = net.flows().size();
  r.delivered = net.delivered_pkts();
  r.injected = net.injected_pkts();
  return r;
}

obs::Json arm_json(const ChaosArmResult& r) {
  obs::Json j = obs::Json::object();
  j.set("name", obs::Json::str(r.name));
  j.set("mode", obs::Json::str(r.mifo ? "MIFO" : "BGP"));
  j.set("seed", obs::Json::num(r.seed));
  j.set("baseline_mbps", obs::Json::num(r.baseline_mbps));
  j.set("dip_mbps", obs::Json::num(r.dip_mbps));
  j.set("recovery_s", obs::Json::num(r.recovery_s));
  j.set("flows_done", obs::Json::num(static_cast<std::uint64_t>(r.flows_done)));
  j.set("flows_total",
        obs::Json::num(static_cast<std::uint64_t>(r.flows_total)));
  j.set("delivered", obs::Json::num(r.delivered));
  j.set("injected", obs::Json::num(r.injected));
  j.set("chaos", r.report.to_json());
  return j;
}

void print_chaos_recovery() {
  const auto s = bench::load_scale(48, 64, 6, 0.0);
  const std::vector<std::uint64_t> seeds{s.seed, s.seed + 1, s.seed + 2};

  obs::Registry reg;
  std::vector<ChaosArmResult> results(2 * seeds.size());
  std::vector<std::function<void()>> arms;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    arms.emplace_back([&, i] {
      results[2 * i] = run_chaos_arm(s, seeds[i], /*mifo=*/false, &reg);
    });
    arms.emplace_back([&, i] {
      results[2 * i + 1] = run_chaos_arm(s, seeds[i], /*mifo=*/true, &reg);
    });
  }
  bench::run_arms(s.threads, arms);

  std::printf("=== chaos recovery: primary-provider degrade to %.0f%%, "
              "t=[%.1f,%.1f) of %.1f s ===\n",
              100.0 * kDegradeTo, kFailAt, kRestoreAt, kDuration);
  std::printf("%-10s %14s %12s %10s %12s %8s\n", "arm", "baseline Mb/s",
              "dip Mb/s", "dip %", "recovery s", "flows");
  for (const auto& r : results) {
    const double dip_pct =
        r.baseline_mbps > 0.0
            ? 100.0 * (1.0 - r.dip_mbps / r.baseline_mbps)
            : 0.0;
    std::printf("%-10s %14.0f %12.0f %9.1f%% %12.3f %5zu/%zu\n",
                r.name.c_str(), r.baseline_mbps, r.dip_mbps, dip_pct,
                r.recovery_s, r.flows_done, r.flows_total);
  }
  double mifo_dip = 0.0, bgp_dip = 0.0;
  for (const auto& r : results) {
    const double dip_pct =
        r.baseline_mbps > 0.0
            ? 100.0 * (1.0 - r.dip_mbps / r.baseline_mbps)
            : 0.0;
    (r.mifo ? mifo_dip : bgp_dip) += dip_pct / static_cast<double>(seeds.size());
  }
  std::printf("mean dip: BGP %.1f%%, MIFO %.1f%% — MIFO offloads the "
              "degraded link onto alternative paths\n",
              bgp_dip, mifo_dip);
  bool all_safe = true;
  for (const auto& r : results) all_safe = all_safe && r.report.safe;
  std::printf("safety-under-churn: %s across %zu arms\n",
              all_safe ? "all snapshots clean" : "VIOLATIONS FOUND",
              results.size());

  // Verified recovery latency (failure -> first clean verify after repair)
  // pooled across arms, broken down by failure class and mode.
  std::map<std::string, RunningStats> by_class;
  for (const auto& r : results) {
    for (const auto& ae : r.report.log) {
      if (ae.t_verified < 0.0) continue;
      by_class[std::string(r.mifo ? "MIFO/" : "BGP/") +
               chaos::to_string(ae.event.kind)]
          .add(ae.recovery_latency());
    }
  }
  if (!by_class.empty()) {
    std::printf("=== verified recovery latency by failure class ===\n");
    std::printf("%-20s %6s %9s %9s %9s\n", "mode/class", "count", "mean(s)",
                "min(s)", "max(s)");
    for (const auto& [key, agg] : by_class) {
      std::printf("%-20s %6zu %9.4f %9.4f %9.4f\n", key.c_str(), agg.count(),
                  agg.sum() / static_cast<double>(agg.count()), agg.min(),
                  agg.max());
    }
  }

  obs::Json root = obs::Json::object();
  root.set("schema", obs::Json::str("mifo.run_artifact.v1"));
  root.set("bench", obs::Json::str("chaos_recovery"));
  obs::Json scale = obs::Json::object();
  scale.set("topo_n", obs::Json::num(static_cast<std::uint64_t>(s.topo_n)));
  scale.set("flows", obs::Json::num(static_cast<std::uint64_t>(s.flows)));
  scale.set("dest_pool",
            obs::Json::num(static_cast<std::uint64_t>(s.dest_pool)));
  scale.set("arrival", obs::Json::num(0.0));
  scale.set("seed", obs::Json::num(s.seed));
  root.set("scale", std::move(scale));
  obs::Json arms_json = obs::Json::array();
  for (const auto& r : results) arms_json.push(arm_json(r));
  root.set("arms", std::move(arms_json));
  root.set("metrics", obs::to_json(reg.snapshot()));
  const std::string path = obs::write_artifact("chaos_recovery", root);
  if (!path.empty()) std::printf("artifact: %s\n", path.c_str());
}

void BM_ChaosRecoveryArm(benchmark::State& state) {
  const auto s = bench::load_scale(32, 24, 4, 0.0);
  for (auto _ : state) {
    const auto r = run_chaos_arm(s, s.seed, state.range(0) != 0, nullptr);
    benchmark::DoNotOptimize(r.delivered);
  }
}
BENCHMARK(BM_ChaosRecoveryArm)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

MIFO_BENCH_MAIN(print_chaos_recovery)
