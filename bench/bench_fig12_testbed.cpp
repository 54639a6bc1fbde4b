// Fig. 12 — testbed experiment on the Fig. 11 topology (packet-level
// emulation of the paper's 15-machine prototype deployment).
//
// Paper headlines: aggregate throughput 1.7 Gbps (MIFO) vs 0.94 Gbps (BGP),
// +81%; all MIFO flows complete within 1.1 s while 80% of BGP flows take
// more than 1.6 s; the whole workload finishes in 30 s vs 51 s.
//
// Default here: 10 MB flows (sub-minute run). MIFO_FLOW_MB=100 reproduces
// the paper's exact 100 MB x 30-flow workload.

#include <algorithm>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "testbed/fig11.hpp"

namespace {

using namespace mifo;

void print_fig12() {
  testbed::Fig12Params params;
  params.flow_size = env_u64("MIFO_FLOW_MB", 10) * kMegaByte;
  params.flows_per_pair = env_u64("MIFO_FLOWS_PER_PAIR", 30);
  params.bucket = 0.25;
  params.link_sample_interval = 0.05;

  // The two emulation arms are independent (each owns its Network); fan
  // them out through bench::run_arms like the fluid-sim benches do.
  testbed::Fig12Result res[2];
  std::vector<std::function<void()>> arms;
  for (const bool with_mifo : {false, true}) {
    arms.emplace_back([&params, &res, with_mifo] {
      testbed::Fig12Params p = params;
      p.mifo = with_mifo;
      res[with_mifo ? 1 : 0] = testbed::run_fig12(p);
    });
  }
  bench::run_arms(default_thread_count(), arms);
  const auto& bgp = res[0];
  const auto& mifo = res[1];

  std::printf("=== Fig. 12(a): aggregate throughput over time (Gbps) ===\n");
  std::printf("%-10s %10s %10s\n", "time(s)", "BGP", "MIFO");
  const std::size_t buckets =
      std::max(bgp.throughput_gbps.size(), mifo.throughput_gbps.size());
  for (std::size_t b = 0; b < buckets; ++b) {
    auto at = [b](const testbed::Fig12Result& r) {
      return b < r.throughput_gbps.size() ? r.throughput_gbps[b] : 0.0;
    };
    std::printf("%-10.2f %10.2f %10.2f\n",
                static_cast<double>(b) * bgp.bucket, at(bgp), at(mifo));
  }
  std::printf("aggregate: BGP %.2f Gbps, MIFO %.2f Gbps -> +%.0f%% "
              "(paper: 0.94 vs 1.7, +81%%)\n",
              bgp.aggregate_gbps, mifo.aggregate_gbps,
              100.0 * (mifo.aggregate_gbps / bgp.aggregate_gbps - 1.0));
  std::printf("workload completion: BGP %.2f s, MIFO %.2f s "
              "(paper: 51 s vs 30 s at 100 MB)\n",
              bgp.total_time, mifo.total_time);

  std::printf("\n=== Fig. 12(b): flow completion time CDF ===\n");
  Cdf bgp_cdf;
  bgp_cdf.add_all(bgp.fct);
  Cdf mifo_cdf;
  mifo_cdf.add_all(mifo.fct);
  const double hi = std::max(bgp_cdf.quantile(1.0), mifo_cdf.quantile(1.0));
  std::printf("%-14s %10s %10s\n", "FCT (s)", "BGP", "MIFO");
  for (int i = 0; i <= 10; ++i) {
    const double x = hi * i / 10.0;
    std::printf("%-14.3f %9.1f%% %9.1f%%\n", x, 100.0 * bgp_cdf.at(x),
                100.0 * mifo_cdf.at(x));
  }
  std::printf("median FCT: BGP %.3f s, MIFO %.3f s; max: BGP %.3f s, "
              "MIFO %.3f s\n",
              bgp_cdf.quantile(0.5), mifo_cdf.quantile(0.5),
              bgp_cdf.quantile(1.0), mifo_cdf.quantile(1.0));
  std::printf("MIFO deflected %llu pkts, %llu IP-in-IP encaps, %llu flow "
              "switches, 0 loops (ttl_drops=%llu)\n",
              static_cast<unsigned long long>(mifo.counters.deflected),
              static_cast<unsigned long long>(mifo.counters.encapsulated),
              static_cast<unsigned long long>(mifo.counters.flow_switches),
              static_cast<unsigned long long>(mifo.counters.ttl_drops));

  // Run artifact with the per-link congestion traces (packet plane).
  obs::Json root = obs::Json::object();
  root.set("schema", obs::Json::str("mifo.run_artifact.v1"));
  root.set("bench", obs::Json::str("fig12_testbed"));
  obs::Json scale = obs::Json::object();
  scale.set("flow_mb",
            obs::Json::num(static_cast<std::uint64_t>(
                params.flow_size / kMegaByte)));
  scale.set("flows_per_pair",
            obs::Json::num(static_cast<std::uint64_t>(params.flows_per_pair)));
  root.set("scale", std::move(scale));
  obs::Json ja = obs::Json::array();
  for (const bool with_mifo : {false, true}) {
    const auto& r = res[with_mifo ? 1 : 0];
    Cdf cdf;
    cdf.add_all(r.fct);
    obs::Json a = obs::Json::object();
    a.set("name", obs::Json::str(with_mifo ? "MIFO" : "BGP"));
    obs::Json sum = obs::Json::object();
    sum.set("flows", obs::Json::num(static_cast<std::uint64_t>(r.fct.size())));
    sum.set("aggregate_gbps", obs::Json::num(r.aggregate_gbps));
    sum.set("total_time_s", obs::Json::num(r.total_time));
    sum.set("median_fct_s", obs::Json::num(cdf.quantile(0.5)));
    sum.set("max_fct_s", obs::Json::num(cdf.quantile(1.0)));
    a.set("summary", std::move(sum));
    obs::Json ctr = obs::Json::object();
    ctr.set("deflected", obs::Json::num(r.counters.deflected));
    ctr.set("encapsulated", obs::Json::num(r.counters.encapsulated));
    ctr.set("flow_switches", obs::Json::num(r.counters.flow_switches));
    ctr.set("ttl_drops", obs::Json::num(r.counters.ttl_drops));
    a.set("counters", std::move(ctr));
    a.set("links", obs::to_json(r.link_samples));
    a.set("metrics", obs::to_json(r.metrics));
    ja.push(std::move(a));
  }
  root.set("arms", std::move(ja));
  const std::string path = obs::write_artifact("fig12_testbed", root);
  if (!path.empty()) std::printf("\nartifact: %s\n", path.c_str());
}

void BM_TestbedRun(benchmark::State& state) {
  testbed::Fig12Params params;
  params.flow_size = 2 * kMegaByte;
  params.flows_per_pair = 3;
  params.mifo = state.range(0) != 0;
  for (auto _ : state) {
    auto res = testbed::run_fig12(params);
    benchmark::DoNotOptimize(res.aggregate_gbps);
  }
}
BENCHMARK(BM_TestbedRun)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

MIFO_BENCH_MAIN(print_fig12)
