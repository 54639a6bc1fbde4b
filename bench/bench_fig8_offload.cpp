// Fig. 8 — fraction of traffic offloaded to alternative paths as MIFO
// deployment grows from 10% to 100%.
//
// Paper headlines: at full deployment about half the flows travel over
// alternative paths; even 10% deployment offloads a non-trivial ~9%.

#include "bench_common.hpp"

namespace {

using namespace mifo;

void print_fig8() {
  const auto s = bench::load_scale(400, 8000, 64, 800.0);
  const auto g = bench::make_topology(s);
  const auto specs = bench::make_uniform(g, s);

  // Ten independent deployment-sweep arms over the same const topology:
  // fan out through bench::run_arms, print in deterministic order, and
  // land the per-arm summaries in the run artifact.
  obs::Registry reg;
  std::vector<bench::ArmResult> results(10);
  std::vector<std::function<void()>> arms;
  for (int pct = 10; pct <= 100; pct += 10) {
    arms.emplace_back([&, pct] {
      results[pct / 10 - 1] = bench::run_arm(
          g, specs, sim::RoutingMode::Mifo, pct / 100.0, s.seed, &reg);
    });
  }
  bench::run_arms(s.threads, arms);

  std::printf("=== Fig. 8: traffic offloaded to alternative paths ===\n");
  std::printf("%-12s %22s\n", "deployment", "flows on alt paths (%)");
  for (int pct = 10; pct <= 100; pct += 10) {
    char label[16];
    std::snprintf(label, sizeof(label), "%d%%", pct);
    std::printf("%-12s %21.1f%%\n", label,
                100.0 * sim::offload_fraction(results[pct / 10 - 1].records));
  }
  std::printf("paper: ~9%% at 10%% deployment, ~50%% at 100%%\n");
  bench::emit_run_artifact("fig8_offload", s, results, &reg);
}

void BM_OffloadRun(benchmark::State& state) {
  const auto s = bench::load_scale(400, 2000, 64, 800.0);
  const auto g = bench::make_topology(s);
  const auto specs = bench::make_uniform(g, s);
  for (auto _ : state) {
    auto recs = bench::run_sim(g, specs, sim::RoutingMode::Mifo,
                               static_cast<double>(state.range(0)) / 100.0,
                               s.seed);
    benchmark::DoNotOptimize(sim::offload_fraction(recs));
  }
}
BENCHMARK(BM_OffloadRun)->Arg(10)->Arg(50)->Arg(100)->Unit(benchmark::kMillisecond);

}  // namespace

MIFO_BENCH_MAIN(print_fig8)
