// Shared helpers for the experiment benches.
//
// Every bench prints its paper-figure table(s) first (deterministic under
// MIFO_SEED) and then runs its google-benchmark timings. Scale knobs come
// from the environment so the experiments can be rerun at paper scale:
//   MIFO_TOPO_N      topology size (ASes)
//   MIFO_FLOWS       number of flows
//   MIFO_DEST_POOL   distinct destination ASes (0 = unrestricted)
//   MIFO_ARRIVAL     flow arrival rate (flows/s)
//   MIFO_SEED        master seed
//   MIFO_THREADS     worker threads (0 = hardware_concurrency); drives both
//                    the per-sim route-cache warmup and the concurrent
//                    figure arms — results are bit-identical at any setting
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/parallel_for.hpp"
#include "obs/artifact.hpp"
#include "obs/registry.hpp"
#include "obs/timeseries.hpp"
#include "sim/fluid_sim.hpp"
#include "sim/metrics.hpp"
#include "topo/analysis.hpp"
#include "topo/generator.hpp"
#include "traffic/traffic.hpp"

namespace mifo::bench {

struct Scale {
  std::size_t topo_n;
  std::size_t flows;
  std::size_t dest_pool;
  double arrival;
  std::uint64_t seed;
  std::size_t threads;
};

/// Defaults sized for single-core minutes; the paper ran 44,340 ASes and
/// one million flows (document per-bench in EXPERIMENTS.md).
inline Scale load_scale(std::size_t topo_n, std::size_t flows,
                        std::size_t dest_pool, double arrival) {
  Scale s;
  s.topo_n = env_u64("MIFO_TOPO_N", topo_n);
  s.flows = env_u64("MIFO_FLOWS", flows);
  s.dest_pool = env_u64("MIFO_DEST_POOL", dest_pool);
  s.arrival = env_double("MIFO_ARRIVAL", arrival);
  s.seed = env_u64("MIFO_SEED", 1);
  s.threads = default_thread_count();
  return s;
}

/// Runs independent experiment arms (each a void() closure producing its
/// result by side effect into its own slot) across MIFO_THREADS workers.
/// Each arm owns its FluidSim, so arms only share const topology state.
inline void run_arms(std::size_t threads,
                     const std::vector<std::function<void()>>& arms) {
  parallel_for(threads, arms.size(), [&arms](std::size_t i) { arms[i](); });
}

inline topo::AsGraph make_topology(const Scale& s) {
  topo::GeneratorParams gp;
  gp.num_ases = s.topo_n;
  gp.seed = s.seed;
  return topo::generate_topology(gp);
}

inline std::vector<traffic::FlowSpec> make_uniform(const topo::AsGraph& g,
                                                   const Scale& s) {
  traffic::TrafficParams tp;
  tp.num_flows = s.flows;
  tp.dest_pool = s.dest_pool;
  tp.arrival_rate = s.arrival;
  tp.seed = s.seed * 3 + 1;
  return traffic::uniform_traffic(g, tp);
}

inline std::vector<sim::FlowRecord> run_sim(
    const topo::AsGraph& g, const std::vector<traffic::FlowSpec>& specs,
    sim::RoutingMode mode, double deploy_ratio, std::uint64_t seed,
    std::size_t threads = 0) {
  sim::SimConfig cfg;
  cfg.mode = mode;
  cfg.threads = threads;
  sim::FluidSim fs(g, cfg);
  fs.set_deployment(
      traffic::random_deployment(g.num_ases(), deploy_ratio, seed * 7 + 5));
  return fs.run(specs);
}

/// One experiment arm's full result: the flow records the tables are built
/// from, plus the observability by-products the run artifact carries.
struct ArmResult {
  std::string name;  ///< e.g. "MIFO@50"
  std::string mode;
  double deploy_ratio = 0.0;
  std::vector<sim::FlowRecord> records;
  obs::UtilSeries samples;
};

/// run_sim plus observability: solver counters go into `reg` (labelled
/// `arm=<name>`), link utilization is sampled every `sample_interval`
/// seconds (0 disables). Safe to call from run_arms workers — registry
/// registration is thread-safe and each arm owns its shard. `base_cfg`
/// seeds the SimConfig (ablation knobs: thresholds, margins, selection);
/// the routing mode always comes from `mode`.
inline ArmResult run_arm(const topo::AsGraph& g,
                         const std::vector<traffic::FlowSpec>& specs,
                         sim::RoutingMode mode, double deploy_ratio,
                         std::uint64_t seed, obs::Registry* reg = nullptr,
                         SimTime sample_interval = 0.0,
                         const std::string& name_suffix = {},
                         const sim::SimConfig* base_cfg = nullptr) {
  ArmResult r;
  r.mode = sim::to_string(mode);
  r.deploy_ratio = deploy_ratio;
  char name[64];
  std::snprintf(name, sizeof(name), "%s@%.0f%s", r.mode.c_str(),
                100.0 * deploy_ratio, name_suffix.c_str());
  r.name = name;
  sim::SimConfig cfg = base_cfg != nullptr ? *base_cfg : sim::SimConfig{};
  cfg.mode = mode;
  sim::FluidSim fs(g, cfg);
  if (reg != nullptr) fs.attach_registry(*reg, "arm=" + r.name);
  if (sample_interval > 0.0) fs.enable_sampling(sample_interval);
  fs.set_deployment(
      traffic::random_deployment(g.num_ases(), deploy_ratio, seed * 7 + 5));
  r.records = fs.run(specs);
  r.samples = fs.samples();
  return r;
}

/// An arm as run-artifact JSON: RunSummary fields, the drop breakdown a
/// fluid run can have (flows, not packets), and the utilization series.
inline obs::Json arm_json(const ArmResult& arm) {
  const sim::RunSummary sum = sim::summarize(arm.records);
  obs::Json a = obs::Json::object();
  a.set("name", obs::Json::str(arm.name));
  a.set("mode", obs::Json::str(arm.mode));
  a.set("deploy_ratio", obs::Json::num(arm.deploy_ratio));
  obs::Json s = obs::Json::object();
  s.set("total", obs::Json::num(static_cast<std::uint64_t>(sum.total)));
  s.set("completed",
        obs::Json::num(static_cast<std::uint64_t>(sum.completed)));
  s.set("unreachable",
        obs::Json::num(static_cast<std::uint64_t>(sum.unreachable)));
  s.set("mean_throughput_mbps", obs::Json::num(sum.mean_throughput));
  s.set("median_throughput_mbps", obs::Json::num(sum.median_throughput));
  s.set("frac_at_500mbps", obs::Json::num(sum.frac_at_500mbps));
  s.set("offload", obs::Json::num(sum.offload));
  a.set("summary", std::move(s));
  const std::uint64_t incomplete = static_cast<std::uint64_t>(
      sum.total - sum.completed - sum.unreachable);
  a.set("drops", obs::drops_json({{"unreachable", sum.unreachable},
                                  {"incomplete", incomplete}}));
  a.set("utilization", obs::to_json(arm.samples));
  return a;
}

/// Writes `<bench>.json` (schema mifo.run_artifact.v1) plus one
/// `<bench>_<arm>_util.csv` per sampled arm, and announces the paths.
/// No-op under MIFO_ARTIFACT_DIR=-.
inline void emit_run_artifact(const std::string& bench_name, const Scale& s,
                              const std::vector<ArmResult>& arms,
                              const obs::Registry* reg = nullptr) {
  obs::Json root = obs::Json::object();
  root.set("schema", obs::Json::str("mifo.run_artifact.v1"));
  root.set("bench", obs::Json::str(bench_name));
  obs::Json scale = obs::Json::object();
  scale.set("topo_n", obs::Json::num(static_cast<std::uint64_t>(s.topo_n)));
  scale.set("flows", obs::Json::num(static_cast<std::uint64_t>(s.flows)));
  scale.set("dest_pool",
            obs::Json::num(static_cast<std::uint64_t>(s.dest_pool)));
  scale.set("arrival", obs::Json::num(s.arrival));
  scale.set("seed", obs::Json::num(static_cast<std::uint64_t>(s.seed)));
  root.set("scale", std::move(scale));
  obs::Json ja = obs::Json::array();
  for (const ArmResult& arm : arms) ja.push(arm_json(arm));
  root.set("arms", std::move(ja));
  if (reg != nullptr) root.set("metrics", obs::to_json(reg->snapshot()));
  const std::string path = obs::write_artifact(bench_name, root);
  if (!path.empty()) std::printf("\nartifact: %s\n", path.c_str());
  for (const ArmResult& arm : arms) {
    if (arm.samples.empty()) continue;
    std::string an = arm.name;
    for (char& c : an) {
      const bool alnum = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
                         (c >= 'A' && c <= 'Z');
      if (!alnum) c = '_';
    }
    std::vector<std::vector<double>> rows;
    rows.reserve(arm.samples.size());
    for (const obs::UtilSample& u : arm.samples) {
      rows.push_back({u.t, u.mean_util, u.max_util, u.frac_congested,
                      u.total_spare_mbps,
                      static_cast<double>(u.active_flows)});
    }
    const std::string csv = obs::write_csv(
        bench_name + "_" + an + "_util",
        {"t", "mean_util", "max_util", "frac_congested", "total_spare_mbps",
         "active_flows"},
        rows);
    if (!csv.empty()) std::printf("artifact: %s\n", csv.c_str());
  }
}

/// Prints a Fig. 5/6-style CDF table: rows are throughput bins, columns the
/// schemes.
inline void print_throughput_cdf(
    const std::string& title,
    const std::vector<std::pair<std::string, const std::vector<sim::FlowRecord>*>>&
        series) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-18s", "Throughput(Mbps)");
  for (const auto& [name, recs] : series) std::printf("%12s", name.c_str());
  std::printf("\n");
  std::vector<Cdf> cdfs;
  cdfs.reserve(series.size());
  for (const auto& [name, recs] : series) {
    cdfs.push_back(sim::throughput_cdf(*recs));
  }
  for (int t = 0; t <= 1000; t += 100) {
    std::printf("%-18d", t);
    for (const auto& cdf : cdfs) {
      std::printf("%11.1f%%", 100.0 * cdf.at(t));
    }
    std::printf("\n");
  }
  std::printf("%-18s", ">=500 Mbps");
  for (const auto& [name, recs] : series) {
    std::printf("%11.1f%%", 100.0 * sim::fraction_at_least(*recs, 500.0));
  }
  std::printf("\n");
}

}  // namespace mifo::bench

/// Figure benches print their tables once, then hand over to the benchmark
/// runner for the registered timing benchmarks.
#define MIFO_BENCH_MAIN(print_figure_fn)                  \
  int main(int argc, char** argv) {                       \
    ::benchmark::Initialize(&argc, argv);                 \
    print_figure_fn();                                    \
    ::benchmark::RunSpecifiedBenchmarks();                \
    ::benchmark::Shutdown();                              \
    return 0;                                             \
  }
