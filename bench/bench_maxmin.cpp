// Ablation A5 — max–min solver and fluid-simulator scaling: the
// progressive-filling allocator is the inner loop of every Fig. 5/6/8/9
// experiment.

#include <algorithm>
#include <set>
#include <span>

#include "bench_common.hpp"
#include "oracle/maxmin_reference.hpp"
#include "sim/maxmin.hpp"

namespace {

using namespace mifo;

struct MaxMinInstance {
  std::vector<double> caps;
  std::vector<std::vector<std::uint32_t>> paths;
  std::vector<std::span<const std::uint32_t>> views;

  MaxMinInstance(std::size_t flows, std::size_t links)
      : caps(links, 1000.0), paths(flows) {
    Rng rng(42);
    for (auto& p : paths) {
      std::set<std::uint32_t> ls;
      const std::size_t hops = 2 + rng.bounded(4);
      while (ls.size() < hops) {
        ls.insert(static_cast<std::uint32_t>(rng.bounded(links)));
      }
      p.assign(ls.begin(), ls.end());
    }
    views.assign(paths.begin(), paths.end());
  }

  [[nodiscard]] sim::MaxMinInput input() const {
    sim::MaxMinInput in;
    in.flow_links = views;
    in.link_capacity = caps;
    in.flow_cap = 1000.0;
    in.num_links = caps.size();
    return in;
  }
};

// The dense-workspace solver exactly as FluidSim drives it: one workspace
// reused across re-evaluation ticks (allocation-free steady state).
void BM_MaxMin(benchmark::State& state) {
  const MaxMinInstance inst(static_cast<std::size_t>(state.range(0)),
                            static_cast<std::size_t>(state.range(1)));
  sim::MaxMinWorkspace ws;
  for (auto _ : state) {
    const auto rates = sim::max_min_rates(inst.input(), ws);
    benchmark::DoNotOptimize(rates.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MaxMin)
    ->Args({100, 200})
    ->Args({1000, 2000})
    ->Args({5000, 5000})
    ->Unit(benchmark::kMicrosecond);

// The original hash-map link-compaction solver, kept as the speedup
// yardstick (and differential-test oracle).
void BM_MaxMinReference(benchmark::State& state) {
  const MaxMinInstance inst(static_cast<std::size_t>(state.range(0)),
                            static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    auto rates = sim::max_min_rates_reference(inst.input());
    benchmark::DoNotOptimize(rates.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MaxMinReference)
    ->Args({100, 200})
    ->Args({1000, 2000})
    ->Args({5000, 5000})
    ->Unit(benchmark::kMicrosecond);

void BM_FluidSimEvents(benchmark::State& state) {
  const auto s = bench::load_scale(400, static_cast<std::size_t>(state.range(0)),
                                   64, 800.0);
  const auto g = bench::make_topology(s);
  const auto specs = bench::make_uniform(g, s);
  for (auto _ : state) {
    auto recs = bench::run_sim(g, specs, sim::RoutingMode::Mifo, 0.5, s.seed);
    benchmark::DoNotOptimize(recs.size());
  }
  state.SetItemsProcessed(state.iterations() * specs.size());
}
BENCHMARK(BM_FluidSimEvents)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

// The per-destination route-cache warmup every simulated run pays before
// its first event: one CSR RouteStore per destination in the pool. The
// csr_bytes counter records the warmed cache's resident footprint (the
// sim.route_cache_bytes gauge), so both warmup time and memory land in
// BENCH_bench_maxmin.json.
void BM_RouteCacheWarmup(benchmark::State& state) {
  const auto s = bench::load_scale(
      static_cast<std::size_t>(state.range(0)), 0, 64, 800.0);
  const auto g = bench::make_topology(s);
  const std::uint32_t dests = static_cast<std::uint32_t>(
      std::min<std::size_t>(s.dest_pool, g.num_ases()));
  std::size_t bytes = 0;
  for (auto _ : state) {
    sim::SimConfig cfg;
    cfg.threads = 1;
    sim::FluidSim fs(g, cfg);
    bytes = 0;
    for (std::uint32_t d = 0; d < dests; ++d) {
      bytes += fs.routes_for(AsId(d)).bytes();
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["csr_bytes"] = static_cast<double>(bytes);
  state.SetItemsProcessed(state.iterations() * dests);
}
BENCHMARK(BM_RouteCacheWarmup)
    ->Arg(400)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void print_header() {
  std::printf("=== Ablation A5: max-min solver / fluid simulator scaling ===\n"
              "(items_per_second = flows allocated or simulated per second)\n");
}

}  // namespace

MIFO_BENCH_MAIN(print_header)
