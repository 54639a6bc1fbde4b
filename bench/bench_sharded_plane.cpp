// Sharded packet plane scaling (DESIGN.md §6): aggregate forwarding rate of
// the scaled Fig. 12-style scenario (1000+ routers, testbed/
// sharded_emulation.hpp) versus worker count, with the serial dp::Network as
// arm zero. Every arm must reproduce the serial arm's outcome digest —
// identical per-flow completions, drop buckets and conservation totals — so
// this bench doubles as the full-scale sharded-vs-serial differential gate
// scripts/check.sh parses out of the run artifact.
//
// Speedup is wall-clock and therefore needs hardware: the >=3x-at-4-workers
// target assumes at least four hardware threads. The artifact records
// hardware_threads so a single-core CI box reporting ~1x reads as what it
// is — correctness evidence with amortized-overhead numbers, not a scaling
// measurement.
//
// Scale knobs: MIFO_TOPO_N (ASes; default 500 -> ~1269 routers), MIFO_FLOWS
// (total flows), MIFO_FLOW_MB, MIFO_SEED.

#include <algorithm>
#include <thread>

#include "bench_common.hpp"
#include "testbed/sharded_emulation.hpp"

namespace {

using namespace mifo;

testbed::ScaledParams scale_from_env() {
  testbed::ScaledParams p;
  p.num_ases = env_u64("MIFO_TOPO_N", p.num_ases);
  const std::size_t flows =
      env_u64("MIFO_FLOWS", p.num_host_pairs * p.flows_per_pair);
  p.num_host_pairs = std::max<std::size_t>(1, flows / p.flows_per_pair);
  p.flow_size = env_u64("MIFO_FLOW_MB", 1) * kMegaByte;
  p.seed = env_u64("MIFO_SEED", 42);
  return p;
}

struct Arm {
  std::string name;
  std::size_t shards = 0;  ///< 0 = serial oracle engine
  testbed::ScaledResult r;
};

void print_sharded_plane() {
  testbed::ScaledParams p = scale_from_env();

  std::vector<Arm> arms;
  arms.push_back({"serial", 0, {}});
  for (const std::size_t w : {1u, 2u, 4u, 8u}) {
    arms.push_back({std::to_string(w) + "w", w, {}});
  }
  // Timing arms are strictly sequential: each sharded arm wants the whole
  // machine to itself.
  for (Arm& a : arms) {
    p.num_shards = a.shards;
    a.r = testbed::run_scaled(p);
  }
  const testbed::ScaledResult& serial = arms.front().r;
  const double serial_pps =
      static_cast<double>(serial.delivered_pkts) / serial.wall_run_seconds;

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("=== sharded packet plane: %zu routers, %zu flows x %llu B "
              "(%u hardware threads) ===\n",
              serial.num_routers, serial.flows_total,
              static_cast<unsigned long long>(p.flow_size), hw);
  std::printf("%-8s %8s %10s %12s %9s %12s %10s %8s %7s\n", "arm", "flows",
              "delivered", "run(s)", "pkts/s", "speedup", "ring_push",
              "overflow", "digest");
  bool digests_ok = true;
  for (const Arm& a : arms) {
    const double pps =
        static_cast<double>(a.r.delivered_pkts) / a.r.wall_run_seconds;
    const bool match = a.r.outcome_digest == serial.outcome_digest;
    digests_ok = digests_ok && match;
    std::printf("%-8s %5zu/%zu %10llu %12.3f %9.0f %11.2fx %10llu %8llu %7s\n",
                a.name.c_str(), a.r.flows_done, a.r.flows_total,
                static_cast<unsigned long long>(a.r.delivered_pkts),
                a.r.wall_run_seconds, pps, pps / serial_pps,
                static_cast<unsigned long long>(a.r.ring_pushed),
                static_cast<unsigned long long>(a.r.ring_overflow),
                match ? "OK" : "DIFF");
  }
  std::printf("differential: %s (every arm vs the serial oracle, digest over "
              "per-flow outcomes + drop buckets)\n",
              digests_ok ? "bit-exact" : "MISMATCH");
  std::printf("target: >=3x at 4 workers; wall-clock speedup needs >=4 "
              "hardware threads (this host: %u)\n", hw);

  // mifo.run_artifact.v1 (the check.sh differential gate parses this).
  obs::Json root = obs::Json::object();
  root.set("schema", obs::Json::str("mifo.run_artifact.v1"));
  root.set("bench", obs::Json::str("sharded_plane"));
  obs::Json scale = obs::Json::object();
  scale.set("topo_n", obs::Json::num(static_cast<std::uint64_t>(p.num_ases)));
  scale.set("routers",
            obs::Json::num(static_cast<std::uint64_t>(serial.num_routers)));
  scale.set("flows",
            obs::Json::num(static_cast<std::uint64_t>(serial.flows_total)));
  scale.set("flow_bytes",
            obs::Json::num(static_cast<std::uint64_t>(p.flow_size)));
  scale.set("seed", obs::Json::num(static_cast<std::uint64_t>(p.seed)));
  scale.set("hardware_threads",
            obs::Json::num(static_cast<std::uint64_t>(hw)));
  root.set("scale", std::move(scale));
  obs::Json ja = obs::Json::array();
  for (const Arm& a : arms) {
    const double pps =
        static_cast<double>(a.r.delivered_pkts) / a.r.wall_run_seconds;
    obs::Json j = obs::Json::object();
    j.set("name", obs::Json::str(a.name));
    j.set("shards", obs::Json::num(static_cast<std::uint64_t>(a.shards)));
    obs::Json s = obs::Json::object();
    s.set("flows_done",
          obs::Json::num(static_cast<std::uint64_t>(a.r.flows_done)));
    s.set("flows_total",
          obs::Json::num(static_cast<std::uint64_t>(a.r.flows_total)));
    s.set("injected_pkts", obs::Json::num(a.r.injected_pkts));
    s.set("delivered_pkts", obs::Json::num(a.r.delivered_pkts));
    s.set("wall_run_seconds", obs::Json::num(a.r.wall_run_seconds));
    s.set("pkts_per_sec", obs::Json::num(pps));
    s.set("speedup_vs_serial", obs::Json::num(pps / serial_pps));
    s.set("last_completion_s", obs::Json::num(a.r.last_completion));
    j.set("summary", std::move(s));
    obs::Json rings = obs::Json::object();
    rings.set("pushed", obs::Json::num(a.r.ring_pushed));
    rings.set("overflow", obs::Json::num(a.r.ring_overflow));
    rings.set("occupancy_peak",
              obs::Json::num(static_cast<std::uint64_t>(a.r.ring_peak)));
    obs::Json pairs = obs::Json::array();
    for (const dp::RingStats& rs : a.r.ring_pairs) {
      obs::Json pj = obs::Json::object();
      pj.set("from", obs::Json::num(static_cast<std::uint64_t>(rs.from)));
      pj.set("to", obs::Json::num(static_cast<std::uint64_t>(rs.to)));
      pj.set("pushed", obs::Json::num(rs.pushed));
      pj.set("overflow", obs::Json::num(rs.overflow));
      pj.set("occupancy_peak",
             obs::Json::num(static_cast<std::uint64_t>(rs.peak)));
      pairs.push(std::move(pj));
    }
    rings.set("pairs", std::move(pairs));
    j.set("rings", std::move(rings));
    obs::Json drops = obs::Json::object();
    for (const auto& [reason, count] : a.r.drops) {
      drops.set(reason, obs::Json::num(count));
    }
    j.set("drops", std::move(drops));
    char digest[20];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(a.r.outcome_digest));
    j.set("outcome_digest", obs::Json::str(digest));
    j.set("digest_matches_serial",
          obs::Json::boolean(a.r.outcome_digest == serial.outcome_digest));
    j.set("metrics", obs::to_json(a.r.metrics));
    ja.push(std::move(j));
  }
  root.set("arms", std::move(ja));
  const std::string path = obs::write_artifact("sharded_plane", root);
  if (!path.empty()) std::printf("\nartifact: %s\n", path.c_str());
}

/// Timing benchmark at differential-test scale (48 ASes) so google-benchmark
/// iterations stay sub-100ms; arg = worker count, 0 = serial engine.
void BM_ScaledRun(benchmark::State& state) {
  testbed::ScaledParams p;
  p.num_ases = 48;
  p.num_tier1 = 4;
  p.num_host_pairs = 8;
  p.flows_per_pair = 2;
  p.flow_size = 200 * 1000;
  p.time_cap = 30.0;
  p.num_shards = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto r = testbed::run_scaled(p);
    benchmark::DoNotOptimize(r.outcome_digest);
  }
}
BENCHMARK(BM_ScaledRun)->Arg(0)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

MIFO_BENCH_MAIN(print_sharded_plane)
