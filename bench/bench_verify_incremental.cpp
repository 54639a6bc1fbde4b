// Incremental vs full verification cost on the scaled deployment
// (docs/VERIFICATION.md, "Incremental verification").
//
// The dirty-set engine (verify/incremental.hpp) memoizes per-destination
// proofs and re-runs the provers only on the destinations a change can have
// invalidated. This bench quantifies the payoff on the scaled Fig. 12-style
// topology (testbed::scaled_expand_mask, 1000+ routers): for single-event
// faults — one link down, one link down plus a daemon reconvergence tick,
// one prefix withdrawal — it compares the states the incremental engine
// re-explores against a from-scratch full-prover pass on the same state,
// and cross-checks every incremental verdict against the full provers
// (differential must hold, or the numbers are meaningless).
//
// Target: >=10x reduction in re-explored states for single-link and
// single-withdraw events (check.sh parses the artifact and enforces it).
// A pure link flip is the extreme case: the deflection graph never reads
// port liveness, so the dirty set is empty and nothing is re-explored.
// Each arm also reports the wall time of the warm incremental pass and of
// the full provers (one timed pass each; not gated).
//
// Scale knobs: MIFO_TOPO_N (ASes; default 500 -> ~1269 routers),
// MIFO_DEST_POOL (prefixes; default 16), MIFO_SEED.

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "dataplane/change_log.hpp"
#include "testbed/emulation.hpp"
#include "testbed/sharded_emulation.hpp"
#include "verify/incremental.hpp"

namespace {

using namespace mifo;

/// A MIFO-enabled deployment with owners spread across the id space —
/// the same shape mifo-verify builds, at the caller's scale.
struct Deployment {
  topo::AsGraph g;
  testbed::Emulation em;
  std::vector<std::pair<dp::Addr, AsId>> owners;
  std::vector<AsId> owner_ases;
};

Deployment build_deployment(std::size_t num_ases, std::size_t dests,
                            std::uint64_t seed, bool expand) {
  Deployment d;
  topo::GeneratorParams gp;
  gp.num_ases = num_ases;
  gp.num_tier1 = 10;  // match testbed::ScaledParams' 1269-router topology
  gp.seed = seed;
  d.g = topo::generate_topology(gp);
  const std::vector<bool> mask =
      expand ? testbed::scaled_expand_mask(d.g, 16)
             : std::vector<bool>(num_ases, false);
  testbed::EmulationBuilder builder(d.g, mask);
  for (std::size_t i = 0; i < dests; ++i) {
    const std::size_t as = i * (num_ases - 1) / (dests > 1 ? dests - 1 : 1);
    d.owner_ases.push_back(AsId(static_cast<std::uint32_t>(as)));
    builder.attach_host(d.owner_ases.back());
  }
  d.em = builder.finalize();
  dp::Network& net = *d.em.net;
  for (std::size_t i = 0; i < net.num_routers(); ++i) {
    net.router(RouterId(static_cast<std::uint32_t>(i)))
        .config()
        .mifo_enabled = true;
  }
  for (const auto& daemon : d.em.daemons) daemon->tick(net, 0.0);
  d.owners.reserve(d.em.hosts.size());
  for (const auto& att : d.em.hosts) d.owners.emplace_back(att.addr, att.as);
  return d;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct ArmRow {
  std::string name;
  std::size_t dirty = 0;
  std::size_t states = 0;
  std::size_t cache_hits = 0;
  std::size_t full_states = 0;  ///< from-scratch cost on the same state
  double reduction = 0.0;
  double incremental_s = 0.0;  ///< wall time of the warm incremental pass
  double full_s = 0.0;         ///< wall time of the full provers
  bool match = false;  ///< incremental verdict == full-prover verdict
};

/// Runs the warm incremental pass on the change log, clears the log, and
/// checks the verdict against the from-scratch run on the same state.
ArmRow measure_arm(const std::string& name, Deployment& d,
                   dp::ChangeLog& log, verify::IncrementalVerifier& inc) {
  const dp::Network& net = *d.em.net;
  ArmRow row;
  auto t0 = std::chrono::steady_clock::now();
  const auto res = inc.check(net, d.g, d.em.daemons, d.owners, log);
  row.incremental_s = seconds_since(t0);
  log.clear();

  t0 = std::chrono::steady_clock::now();
  const verify::Verdict full = verify::check_from_scratch(
      net, d.g, d.em.daemons, d.owners, inc.config());
  row.full_s = seconds_since(t0);

  row.name = name;
  row.dirty = res.stats.dirty_destinations;
  row.states = res.stats.states_explored;
  row.cache_hits = res.stats.cache_hits;
  row.full_states = full.stats.states_explored;
  row.reduction = static_cast<double>(row.full_states) /
                  static_cast<double>(std::max<std::size_t>(1, row.states));
  row.match = verify::same_findings(res, full);
  return row;
}

void print_verify_incremental() {
  const std::uint64_t seed = env_u64("MIFO_SEED", 42);
  const std::size_t num_ases = env_u64("MIFO_TOPO_N", 500);
  const std::size_t dests = env_u64("MIFO_DEST_POOL", 16);

  Deployment d = build_deployment(num_ases, dests, seed, /*expand=*/true);
  dp::Network& net = *d.em.net;

  dp::ChangeLog log;
  verify::IncrementalVerifier inc;
  net.attach_change_log(&log);
  const auto cold = inc.check(net, d.g, d.em.daemons, d.owners, log);

  std::printf("=== incremental verification: %zu routers, %zu destinations "
              "(cold pass: %zu states) ===\n",
              net.num_routers(), cold.stats.destinations,
              cold.stats.states_explored);

  std::vector<ArmRow> arms;

  // Arm 1: one inter-AS link down, nothing else. The deflection graph is
  // port-state-independent, so the dirty set is provably empty. Pick a port
  // some router has installed as an alternative, so arm 2's reconvergence
  // tick has a spare to re-elect.
  {
    RouterId down_r = RouterId::invalid();
    PortId down_p = PortId::invalid();
    for (std::size_t i = 0; i < net.num_routers() && !down_r.valid(); ++i) {
      const dp::Router& r = net.router(RouterId(static_cast<std::uint32_t>(i)));
      for (const auto& [dst, fe] : r.fib()) {
        if (fe.alt_port.valid() &&
            r.port(fe.alt_port).kind == dp::PortKind::Ebgp) {
          down_r = RouterId(static_cast<std::uint32_t>(i));
          down_p = fe.alt_port;
          break;
        }
      }
    }
    if (!down_r.valid()) {
      const auto& eg = d.em.wirings[d.owner_ases.front().value()].egresses.front();
      down_r = eg.router;
      down_p = eg.port;
    }
    net.set_port_up(down_r, down_p, false);
    arms.push_back(measure_arm("link_down", d, log, inc));
  }

  // Arm 2: the daemons reconverge on the failed link — alt ports re-elected
  // where the dead egress was the spare. Only those destinations re-prove.
  {
    for (const auto& daemon : d.em.daemons) daemon->tick(net, 0.02);
    arms.push_back(measure_arm("link_down_reconv", d, log, inc));
  }

  // Arm 3: withdraw one origin. Exactly that prefix's proofs invalidate.
  {
    const bool ok = testbed::withdraw_prefix(d.em, d.owner_ases[dests / 2]);
    arms.push_back(
        measure_arm(ok ? "withdraw" : "withdraw_noop", d, log, inc));
  }

  std::printf("%-18s %7s %9s %7s %11s %10s %8s %8s %6s\n", "arm", "dirty",
              "states", "cached", "full_states", "reduction", "inc_ms",
              "full_ms", "diff");
  bool all_match = true;
  for (const ArmRow& a : arms) {
    all_match = all_match && a.match;
    std::printf("%-18s %7zu %9zu %7zu %11zu %9.1fx %8.3f %8.3f %6s\n",
                a.name.c_str(), a.dirty, a.states, a.cache_hits, a.full_states,
                a.reduction, 1e3 * a.incremental_s, 1e3 * a.full_s,
                a.match ? "OK" : "DIFF");
  }
  std::printf("differential: incremental verdicts %s the full provers on "
              "every arm\n",
              all_match ? "identical to" : "DIVERGED from");
  std::printf("target: >=10x state reduction for single-link and "
              "single-withdraw events\n");

  // mifo.run_artifact.v1 (the check.sh gate parses this).
  obs::Json root = obs::Json::object();
  root.set("schema", obs::Json::str("mifo.run_artifact.v1"));
  root.set("bench", obs::Json::str("verify_incremental"));
  obs::Json scale = obs::Json::object();
  scale.set("topo_n", obs::Json::num(static_cast<std::uint64_t>(num_ases)));
  scale.set("routers",
            obs::Json::num(static_cast<std::uint64_t>(net.num_routers())));
  scale.set("destinations",
            obs::Json::num(static_cast<std::uint64_t>(dests)));
  scale.set("seed", obs::Json::num(seed));
  root.set("scale", std::move(scale));
  obs::Json cold_j = obs::Json::object();
  cold_j.set("destinations", obs::Json::num(static_cast<std::uint64_t>(
                                 cold.stats.destinations)));
  cold_j.set("states_explored", obs::Json::num(static_cast<std::uint64_t>(
                                    cold.stats.states_explored)));
  root.set("cold", std::move(cold_j));
  obs::Json ja = obs::Json::array();
  for (const ArmRow& a : arms) {
    obs::Json j = obs::Json::object();
    j.set("name", obs::Json::str(a.name));
    j.set("dirty_destinations",
          obs::Json::num(static_cast<std::uint64_t>(a.dirty)));
    j.set("states_explored",
          obs::Json::num(static_cast<std::uint64_t>(a.states)));
    j.set("cache_hits",
          obs::Json::num(static_cast<std::uint64_t>(a.cache_hits)));
    j.set("full_states",
          obs::Json::num(static_cast<std::uint64_t>(a.full_states)));
    j.set("reduction", obs::Json::num(a.reduction));
    j.set("incremental_s", obs::Json::num(a.incremental_s));
    j.set("full_s", obs::Json::num(a.full_s));
    j.set("differential_match", obs::Json::boolean(a.match));
    ja.push(std::move(j));
  }
  root.set("arms", std::move(ja));
  const std::string path = obs::write_artifact("verify_incremental", root);
  if (!path.empty()) std::printf("\nartifact: %s\n", path.c_str());
}

/// Timing benchmarks at differential-test scale (48 ASes, 8 prefixes) so
/// iterations stay sub-100ms, and at chaos_churn's shape (400 one-router
/// ASes, 64 prefixes), where the per-destination cost of a re-proof is
/// measured against a deployment that has many daemons and prefixes.
void apply_scales(benchmark::internal::Benchmark* b) {
  b->ArgNames({"ases", "prefixes"})->Args({48, 8})->Args({400, 64});
}

void BM_FullProvers(benchmark::State& state) {
  Deployment d = build_deployment(static_cast<std::size_t>(state.range(0)),
                                  static_cast<std::size_t>(state.range(1)),
                                  42, /*expand=*/false);
  const dp::Network& net = *d.em.net;
  std::size_t states = 0;
  for (auto _ : state) {
    const verify::Verdict v =
        verify::check_from_scratch(net, d.g, d.em.daemons, d.owners);
    states = v.stats.states_explored;
    benchmark::DoNotOptimize(v.clean());
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_FullProvers)->Apply(apply_scales)->Unit(benchmark::kMicrosecond);

void BM_IncrementalAllCached(benchmark::State& state) {
  Deployment d = build_deployment(48, 8, 42, /*expand=*/false);
  const dp::ChangeLog log;
  verify::IncrementalVerifier inc;
  (void)inc.check(*d.em.net, d.g, d.em.daemons, d.owners, log);
  std::size_t hits = 0;
  for (auto _ : state) {
    const auto res = inc.check(*d.em.net, d.g, d.em.daemons, d.owners, log);
    hits = res.stats.cache_hits;
    benchmark::DoNotOptimize(res.loop.loop_free);
  }
  state.counters["cache_hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_IncrementalAllCached)->Unit(benchmark::kMicrosecond);

void BM_IncrementalOneDirty(benchmark::State& state) {
  Deployment d = build_deployment(static_cast<std::size_t>(state.range(0)),
                                  static_cast<std::size_t>(state.range(1)),
                                  42, /*expand=*/false);
  dp::ChangeLog log;
  verify::IncrementalVerifier inc;
  (void)inc.check(*d.em.net, d.g, d.em.daemons, d.owners, log);
  std::size_t states = 0;
  for (auto _ : state) {
    log.note_fib(RouterId(0), d.owners.front().first);
    const auto res = inc.check(*d.em.net, d.g, d.em.daemons, d.owners, log);
    log.clear();
    states = res.stats.states_explored;
    benchmark::DoNotOptimize(res.loop.loop_free);
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_IncrementalOneDirty)
    ->Apply(apply_scales)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

MIFO_BENCH_MAIN(print_verify_incremental)
