// Delta BGP route recomputation under churn (DESIGN.md §5.1b).
//
// `DeltaRoutingTable` maintains one immutable CSR RouteStore segment per
// tracked destination and, per routing event, re-runs Gao–Rexford only for
// the destinations whose best-route assignment the event can change
// (RIB-row-only changes get a view patch with no decision run). This bench
// drives a seeded churn mix — prefix withdrawals/re-announcements
// dominating occasional session flaps, the shape of measured BGP update
// streams — over the scaled Fig. 12-style deployment
// (testbed::scaled_expand_mask, 1269 routers at default scale) and
// reports, per event, the reconvergence latency and the recompute-work
// reduction against the from-scratch baseline (events * tracked
// destinations). Every few events the retained from-scratch oracle
// (`differential_check`) re-verifies each published segment; any mismatch
// invalidates the run (check.sh enforces zero).
//
// Target: >=10x fewer destinations recomputed than a rebuild-everything
// policy across the churn mix, with sub-second per-event reconvergence
// (check.sh parses the artifact and enforces the reduction; latency lives
// in the nondeterministic `timing` section, which byte-reproducibility
// diffs strip).
//
// Scale knobs: MIFO_TOPO_N (ASes; default 500 -> ~1269 routers),
// MIFO_DEST_POOL (tracked destinations; default 64), MIFO_SEED.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "bgp/delta.hpp"
#include "common/rng.hpp"
#include "testbed/emulation.hpp"
#include "testbed/sharded_emulation.hpp"

namespace {

using namespace mifo;
using bgp::DeltaRoutingTable;
using bgp::DeltaStats;
using bgp::RouteEvent;

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  return v[static_cast<std::size_t>(idx + 0.5)];
}

/// The scaled deployment (for the router count headline) plus the AS-level
/// structures the delta table runs on.
struct Setup {
  topo::AsGraph g;
  std::size_t routers = 0;
  std::vector<AsId> dests;
  std::vector<std::pair<AsId, AsId>> edges;
};

Setup build_setup(std::size_t num_ases, std::size_t dest_pool,
                  std::uint64_t seed) {
  Setup s;
  topo::GeneratorParams gp;
  gp.num_ases = num_ases;
  gp.num_tier1 = 10;  // match testbed::ScaledParams' 1269-router topology
  gp.seed = seed;
  s.g = topo::generate_topology(gp);
  testbed::EmulationBuilder builder(s.g, testbed::scaled_expand_mask(s.g, 16));
  const testbed::Emulation em = builder.finalize();
  s.routers = em.net->num_routers();

  const std::size_t dests = std::min(dest_pool, num_ases);
  for (std::size_t i = 0; i < dests; ++i) {
    const std::size_t as = i * (num_ases - 1) / (dests > 1 ? dests - 1 : 1);
    s.dests.push_back(AsId(static_cast<std::uint32_t>(as)));
  }
  for (std::uint32_t i = 0; i < s.g.num_ases(); ++i) {
    const AsId a(i);
    for (const auto& nb : s.g.neighbors(a)) {
      if (a < nb.as) s.edges.emplace_back(a, nb.as);
    }
  }
  return s;
}

struct KindRow {
  const char* name;
  std::size_t events = 0;
  std::size_t recomputed = 0;
  std::size_t patched = 0;
  std::size_t unchanged = 0;
  std::vector<double> latency_s{};
};

/// Totals of one seeded churn run over a fresh delta table (shared by the
/// figure print and BM_ChurnWorkReduction, whose exported counters land in
/// BENCH_bench_route_delta.json).
struct ChurnTotals {
  KindRow rows[4] = {{"withdraw"}, {"reannounce"}, {"session_down"},
                     {"session_up"}};
  std::size_t universe = 0;
  std::size_t applied = 0;
  std::size_t recomputed = 0;
  std::size_t patched = 0;
  std::size_t unchanged = 0;
  std::size_t checks = 0;
  std::size_t mismatches = 0;
  std::vector<double> latency_s;

  [[nodiscard]] std::size_t full_work() const { return applied * universe; }
  [[nodiscard]] double reduction() const {
    return static_cast<double>(full_work()) /
           static_cast<double>(std::max<std::size_t>(1, recomputed));
  }
};

ChurnTotals run_churn(const Setup& s, std::uint64_t seed,
                      std::size_t num_events) {
  DeltaRoutingTable table(s.g, s.dests);
  ChurnTotals t;
  t.universe = table.destinations().size();
  t.latency_s.reserve(num_events);
  std::vector<AsId> live(s.dests);
  std::vector<AsId> withdrawn;
  std::vector<std::pair<AsId, AsId>> up_edges(s.edges);
  std::vector<std::pair<AsId, AsId>> down_edges;

  Rng rng(seed * 9973 + 5);
  for (std::size_t e = 0; e < num_events; ++e) {
    // Weighted churn mix: 8-in-10 prefix events, 2-in-10 session flaps —
    // the shape of measured BGP update streams, where per-prefix
    // announce/withdraw churn outnumbers session resets by a wide margin.
    // Repairs draw from the live failure pools so the run stays busy and
    // ends near the initial state.
    std::size_t kind;
    const std::uint64_t dice = rng.bounded(10);
    if (dice < 4) {
      kind = live.empty() ? 1 : 0;
    } else if (dice < 8) {
      kind = withdrawn.empty() ? 0 : 1;
    } else if (dice == 8) {
      kind = up_edges.empty() ? 3 : 2;
    } else {
      kind = down_edges.empty() ? 2 : 3;
    }
    RouteEvent ev = RouteEvent::withdraw(AsId::invalid());
    if (kind == 0) {
      const std::size_t i = rng.bounded(live.size());
      ev = RouteEvent::withdraw(live[i]);
      withdrawn.push_back(live[i]);
      live[i] = live.back();
      live.pop_back();
    } else if (kind == 1) {
      const std::size_t i = rng.bounded(withdrawn.size());
      ev = RouteEvent::reannounce(withdrawn[i]);
      live.push_back(withdrawn[i]);
      withdrawn[i] = withdrawn.back();
      withdrawn.pop_back();
    } else if (kind == 2) {
      const std::size_t i = rng.bounded(up_edges.size());
      ev = RouteEvent::session_down(up_edges[i].first, up_edges[i].second);
      down_edges.push_back(up_edges[i]);
      up_edges[i] = up_edges.back();
      up_edges.pop_back();
    } else {
      const std::size_t i = rng.bounded(down_edges.size());
      ev = RouteEvent::session_up(down_edges[i].first, down_edges[i].second);
      up_edges.push_back(down_edges[i]);
      down_edges[i] = down_edges.back();
      down_edges.pop_back();
    }

    const auto t0 = std::chrono::steady_clock::now();
    const DeltaStats st = table.apply(ev);
    const auto t1 = std::chrono::steady_clock::now();
    if (!st.applied) continue;
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    ++t.applied;
    t.recomputed += st.recomputed;
    t.patched += st.patched;
    t.unchanged += st.unchanged;
    t.latency_s.push_back(secs);
    t.rows[kind].events += 1;
    t.rows[kind].recomputed += st.recomputed;
    t.rows[kind].patched += st.patched;
    t.rows[kind].unchanged += st.unchanged;
    t.rows[kind].latency_s.push_back(secs);

    if ((e + 1) % 25 == 0) {
      ++t.checks;
      t.mismatches += table.differential_check().size();
    }
  }
  ++t.checks;
  t.mismatches += table.differential_check().size();
  return t;
}

void print_route_delta() {
  const std::uint64_t seed = env_u64("MIFO_SEED", 42);
  const std::size_t num_ases = env_u64("MIFO_TOPO_N", 500);
  const std::size_t dest_pool = env_u64("MIFO_DEST_POOL", 64);
  const std::size_t num_events = env_u64("MIFO_EVENTS", 200);

  const Setup s = build_setup(num_ases, dest_pool, seed);
  const ChurnTotals t = run_churn(s, seed, num_events);
  const std::size_t universe = t.universe;
  const std::size_t applied_events = t.applied;
  const std::size_t total_recomputed = t.recomputed;
  const std::size_t total_patched = t.patched;
  const std::size_t total_unchanged = t.unchanged;
  const std::size_t differential_checks = t.checks;
  const std::size_t differential_mismatches = t.mismatches;
  const std::vector<double>& latency_s = t.latency_s;
  const std::size_t full_work = t.full_work();
  const double reduction = t.reduction();

  std::printf("=== delta route recomputation: %zu ASes, %zu routers, "
              "%zu tracked destinations, %zu churn events ===\n",
              s.g.num_ases(), s.routers, universe, num_events);
  std::printf("%-14s %7s %10s %9s %9s %10s %10s %10s\n", "event", "count",
              "recomputed", "patched", "kept", "p50_us", "p99_us", "max_us");
  for (const KindRow& r : t.rows) {
    std::printf("%-14s %7zu %10zu %9zu %9zu %10.1f %10.1f %10.1f\n", r.name,
                r.events, r.recomputed, r.patched, r.unchanged,
                1e6 * percentile(r.latency_s, 0.5),
                1e6 * percentile(r.latency_s, 0.99),
                1e6 * percentile(r.latency_s, 1.0));
  }
  std::printf("recompute work: %zu of %zu destination decision runs "
              "(%.1fx reduction vs rebuild-everything), %zu view patches\n",
              total_recomputed, full_work, reduction, total_patched);
  std::printf("per-event reconvergence: p50 %.1f us, p99 %.1f us, max %.3f "
              "ms (sub-second target)\n",
              1e6 * percentile(latency_s, 0.5),
              1e6 * percentile(latency_s, 0.99),
              1e3 * percentile(latency_s, 1.0));
  std::printf("differential: %zu oracle sweeps, %zu mismatches\n",
              differential_checks, differential_mismatches);
  std::printf("target: >=10x recompute reduction, 0 mismatches\n");

  // mifo.run_artifact.v1 (the check.sh gate parses this). Wall-clock data
  // is nondeterministic; artifact consumers byte-compare same-seed runs
  // after dropping the `timing` section (scripts/check.sh).
  obs::Json root = obs::Json::object();
  root.set("schema", obs::Json::str("mifo.run_artifact.v1"));
  root.set("bench", obs::Json::str("route_delta"));
  obs::Json scale = obs::Json::object();
  scale.set("topo_n", obs::Json::num(static_cast<std::uint64_t>(num_ases)));
  scale.set("routers", obs::Json::num(static_cast<std::uint64_t>(s.routers)));
  scale.set("destinations",
            obs::Json::num(static_cast<std::uint64_t>(universe)));
  scale.set("events", obs::Json::num(static_cast<std::uint64_t>(num_events)));
  scale.set("seed", obs::Json::num(seed));
  root.set("scale", std::move(scale));
  obs::Json churn = obs::Json::object();
  churn.set("events_applied",
            obs::Json::num(static_cast<std::uint64_t>(applied_events)));
  churn.set("destinations_recomputed",
            obs::Json::num(static_cast<std::uint64_t>(total_recomputed)));
  churn.set("destinations_patched",
            obs::Json::num(static_cast<std::uint64_t>(total_patched)));
  churn.set("destinations_kept",
            obs::Json::num(static_cast<std::uint64_t>(total_unchanged)));
  churn.set("full_rebuild_work",
            obs::Json::num(static_cast<std::uint64_t>(full_work)));
  churn.set("work_reduction", obs::Json::num(reduction));
  churn.set("differential_checks",
            obs::Json::num(static_cast<std::uint64_t>(differential_checks)));
  churn.set("differential_mismatches",
            obs::Json::num(
                static_cast<std::uint64_t>(differential_mismatches)));
  root.set("churn", std::move(churn));
  obs::Json ja = obs::Json::array();
  for (const KindRow& r : t.rows) {
    obs::Json j = obs::Json::object();
    j.set("name", obs::Json::str(r.name));
    j.set("events", obs::Json::num(static_cast<std::uint64_t>(r.events)));
    j.set("recomputed",
          obs::Json::num(static_cast<std::uint64_t>(r.recomputed)));
    j.set("patched", obs::Json::num(static_cast<std::uint64_t>(r.patched)));
    j.set("kept", obs::Json::num(static_cast<std::uint64_t>(r.unchanged)));
    ja.push(std::move(j));
  }
  root.set("arms", std::move(ja));
  obs::Json timing = obs::Json::object();
  timing.set("event_p50_us", obs::Json::num(1e6 * percentile(latency_s, 0.5)));
  timing.set("event_p99_us", obs::Json::num(1e6 * percentile(latency_s, 0.99)));
  timing.set("event_max_us", obs::Json::num(1e6 * percentile(latency_s, 1.0)));
  root.set("timing", std::move(timing));
  const std::string path = obs::write_artifact("route_delta", root);
  if (!path.empty()) std::printf("\nartifact: %s\n", path.c_str());
}

/// The headline gate, exported as google-benchmark counters so the
/// committed BENCH_bench_route_delta.json carries the recompute-reduction
/// and differential-mismatch figures (check.sh asserts work_reduction >= 10
/// and differential_mismatches == 0 at the committed default scale). Same
/// seeded churn mix and knobs as the figure print above.
void BM_ChurnWorkReduction(benchmark::State& state) {
  const std::uint64_t seed = env_u64("MIFO_SEED", 42);
  const std::size_t num_ases = env_u64("MIFO_TOPO_N", 500);
  const std::size_t dest_pool = env_u64("MIFO_DEST_POOL", 64);
  const std::size_t num_events = env_u64("MIFO_EVENTS", 200);
  const Setup s = build_setup(num_ases, dest_pool, seed);
  ChurnTotals t;
  for (auto _ : state) {
    t = run_churn(s, seed, num_events);
    benchmark::DoNotOptimize(t.recomputed);
  }
  state.counters["events"] = static_cast<double>(t.applied);
  state.counters["destinations"] = static_cast<double>(t.universe);
  state.counters["recomputed"] = static_cast<double>(t.recomputed);
  state.counters["patched"] = static_cast<double>(t.patched);
  state.counters["work_reduction"] = t.reduction();
  state.counters["differential_mismatches"] =
      static_cast<double>(t.mismatches);
}
BENCHMARK(BM_ChurnWorkReduction)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);  // deterministic counters, one full churn run

/// Timing benchmarks at differential-test scale (48 ASes, every AS
/// tracked) so iterations stay sub-100ms.

topo::AsGraph micro_graph() {
  topo::GeneratorParams gp;
  gp.num_ases = 48;
  gp.seed = 42;
  return topo::generate_topology(gp);
}

std::vector<AsId> micro_dests(const topo::AsGraph& g) {
  std::vector<AsId> d;
  for (std::uint32_t i = 0; i < g.num_ases(); ++i) d.emplace_back(i);
  return d;
}

void BM_DeltaWithdrawReannounce(benchmark::State& state) {
  const topo::AsGraph g = micro_graph();
  DeltaRoutingTable table(g, micro_dests(g));
  std::size_t recomputed = 0;
  for (auto _ : state) {
    recomputed = table.apply(RouteEvent::withdraw(AsId(7))).recomputed;
    recomputed += table.apply(RouteEvent::reannounce(AsId(7))).recomputed;
    benchmark::DoNotOptimize(recomputed);
  }
  state.counters["recomputed"] = static_cast<double>(recomputed);
}
BENCHMARK(BM_DeltaWithdrawReannounce)->Unit(benchmark::kMicrosecond);

void BM_DeltaSessionFlap(benchmark::State& state) {
  const topo::AsGraph g = micro_graph();
  DeltaRoutingTable table(g, micro_dests(g));
  const AsId a(0);
  const AsId b = g.neighbors(a).front().as;
  std::size_t recomputed = 0;
  std::size_t patched = 0;
  for (auto _ : state) {
    DeltaStats st = table.apply(RouteEvent::session_down(a, b));
    recomputed = st.recomputed;
    patched = st.patched;
    st = table.apply(RouteEvent::session_up(a, b));
    recomputed += st.recomputed;
    patched += st.patched;
    benchmark::DoNotOptimize(recomputed);
  }
  state.counters["recomputed"] = static_cast<double>(recomputed);
  state.counters["patched"] = static_cast<double>(patched);
}
BENCHMARK(BM_DeltaSessionFlap)->Unit(benchmark::kMicrosecond);

void BM_FullRebuildAllDestinations(benchmark::State& state) {
  // The baseline the delta engine displaces: from-scratch Gao-Rexford for
  // every tracked destination (what a withdraw would cost without deltas).
  const topo::AsGraph g = micro_graph();
  DeltaRoutingTable table(g, micro_dests(g));
  std::size_t bytes = 0;
  for (auto _ : state) {
    bytes = 0;
    for (const AsId d : table.destinations()) {
      bytes += table.rebuild_full(d).bytes();
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["stores"] =
      static_cast<double>(table.destinations().size());
}
BENCHMARK(BM_FullRebuildAllDestinations)->Unit(benchmark::kMicrosecond);

}  // namespace

MIFO_BENCH_MAIN(print_route_delta)
