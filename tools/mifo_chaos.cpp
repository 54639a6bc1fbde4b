// mifo-chaos — fault-injection runner with safety-under-churn verification
// (docs/CHAOS.md).
//
// Builds a MIFO deployment on a generated (or loaded) topology, runs seeded
// background traffic through the packet emulator, and injects a chaos plan
// (scripted file or seeded random schedule) while re-proving loop-freedom
// and FIB/RIB consistency after every event and reconvergence window.
//
//   mifo-chaos --gen --seed 3 --duration 1.5        # randomized churn
//   mifo-chaos --plan scenario.txt                  # scripted scenario
//   mifo-chaos --gen --seed 7 --mutate-valley       # planted Eq.3 violation;
//                                                   # expects a caught cycle
//
// Exit status: 0 = every snapshot safe, 1 = usage/input error (including a
// malformed numeric flag, a size, fault count or flow count outside the
// bounds --help lists, a --topo line topo::parse rejects and a plan
// event naming an AS outside the topology), 2 =
// violation found (a counterexample cycle or lint issue, attributed to the
// event that triggered it) or a cyclic provider hierarchy, which is outside
// the loop-freedom theorem's premise (verdict PREMISE-VIOLATED, nothing is
// run). Artifacts (mifo.run_artifact.v1 with a `chaos` section) land in
// MIFO_ARTIFACT_DIR; the run is bit-reproducible for a fixed (topology,
// seed, plan).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "chaos/engine.hpp"
#include "chaos/plan.hpp"
#include "common/rng.hpp"
#include "flags.hpp"
#include "obs/artifact.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "testbed/emulation.hpp"
#include "topo/analysis.hpp"
#include "topo/generator.hpp"
#include "topo/serialization.hpp"

using namespace mifo;

namespace {

constexpr const char* kTool = "mifo-chaos";
/// The generator's tier-1 clique: the smallest topology it can build.
constexpr std::size_t kMinAses = topo::GeneratorParams{}.num_tier1;

struct Options {
  std::string topo_file;
  std::string plan_file;
  bool gen = false;
  std::size_t ases = 40;
  std::uint64_t seed = 1;
  SimTime duration = 1.0;
  double rate = 6.0;
  SimTime mttr = 0.15;
  std::size_t dests = 6;
  std::size_t flows = 48;
  bool mutate_valley = false;
  bool mutate_stale_route = false;
  bool print_plan = false;
  bool quiet = false;
  chaos::VerifyMode verify_mode = chaos::VerifyMode::Full;
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--plan FILE | --gen] [--topo FILE] [--ases N] [--seed S]\n"
      "          [--duration T] [--rate R] [--mttr M] [--dests K]\n"
      "          [--flows F] [--verify-mode MODE] [--mutate-valley]\n"
      "          [--mutate-stale-route] [--print-plan] [-q]\n"
      "  --plan FILE     scripted chaos plan (docs/CHAOS.md DSL)\n"
      "  --gen           seeded random plan (Poisson faults, default)\n"
      "  --topo FILE     CAIDA-style topology dump (default: generated)\n"
      "  --ases N        generated topology size (default 40, at least %zu)\n"
      "  --seed S        master seed: topology, traffic, plan (default 1)\n"
      "  --duration T    plan duration in sim seconds (default 1.0)\n"
      "  --rate R        mean fault arrivals/sec for --gen (default 6;\n"
      "                  R x T at most %zu)\n"
      "  --mttr M        mean time-to-repair for --gen (default 0.15)\n"
      "  --dests K       prefix-owning ASes (default 6)\n"
      "  --flows F       background flows (default 48, at most %u)\n"
      "  --verify-mode MODE  full | incremental | differential (default\n"
      "                  full). incremental re-proves only the destinations\n"
      "                  each fault dirtied; differential also runs the full\n"
      "                  provers as an oracle and fails on any divergence\n"
      "  --mutate-valley plant an Eq.3-violating deflection ring mid-run;\n"
      "                  the verifier must catch it (expects exit 2)\n"
      "  --mutate-stale-route\n"
      "                  withdraw an origin but skip its delta route\n"
      "                  recompute; forces differential mode, whose\n"
      "                  from-scratch rebuild must catch the stale CSR\n"
      "                  segment (expects exit 2)\n"
      "  --print-plan    dump the effective plan before running\n"
      "  -q              verdict only\n",
      argv0, kMinAses, chaos::kMaxEveryEvents, chaos::kMaxBurstFlows);
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--plan" && (v = next())) {
      opt.plan_file = v;
    } else if (arg == "--gen") {
      opt.gen = true;
    } else if (arg == "--topo" && (v = next())) {
      opt.topo_file = v;
    } else if (arg == "--ases" && (v = next())) {
      if (!tools::parse_flag(kTool, arg, v, opt.ases)) return false;
    } else if (arg == "--seed" && (v = next())) {
      if (!tools::parse_flag(kTool, arg, v, opt.seed)) return false;
    } else if (arg == "--duration" && (v = next())) {
      if (!tools::parse_flag(kTool, arg, v, opt.duration)) return false;
    } else if (arg == "--rate" && (v = next())) {
      if (!tools::parse_flag(kTool, arg, v, opt.rate)) return false;
    } else if (arg == "--mttr" && (v = next())) {
      if (!tools::parse_flag(kTool, arg, v, opt.mttr)) return false;
    } else if (arg == "--dests" && (v = next())) {
      if (!tools::parse_flag(kTool, arg, v, opt.dests)) return false;
    } else if (arg == "--flows" && (v = next())) {
      if (!tools::parse_flag(kTool, arg, v, opt.flows)) return false;
    } else if (arg == "--verify-mode" && (v = next())) {
      const std::string mode = v;
      if (mode == "full") {
        opt.verify_mode = chaos::VerifyMode::Full;
      } else if (mode == "incremental") {
        opt.verify_mode = chaos::VerifyMode::Incremental;
      } else if (mode == "differential") {
        opt.verify_mode = chaos::VerifyMode::Differential;
      } else {
        return false;
      }
    } else if (arg == "--mutate-valley") {
      opt.mutate_valley = true;
    } else if (arg == "--mutate-stale-route") {
      opt.mutate_stale_route = true;
      // plant_stale_route is only observable by the route differential
      // oracle, so the flag implies the mode that can catch it.
      opt.verify_mode = chaos::VerifyMode::Differential;
    } else if (arg == "--print-plan") {
      opt.print_plan = true;
    } else if (arg == "-q") {
      opt.quiet = true;
    } else {
      return false;
    }
  }
  if (opt.ases < kMinAses) {
    std::fprintf(stderr, "%s: --ases: %zu ASes is below the minimum of %zu\n",
                 kTool, opt.ases, kMinAses);
    return false;
  }
  // A generated plan holds about rate x duration faults, and every flow is
  // started up front: cap both where a scripted plan's `every` and `burst`
  // are capped.
  if (opt.plan_file.empty() &&
      opt.rate * opt.duration > static_cast<double>(chaos::kMaxEveryEvents)) {
    std::fprintf(stderr,
                 "%s: --rate x --duration: %g faults is above the cap of "
                 "%zu\n",
                 kTool, opt.rate * opt.duration, chaos::kMaxEveryEvents);
    return false;
  }
  if (opt.flows > chaos::kMaxBurstFlows) {
    std::fprintf(stderr, "%s: --flows: %zu is above the cap of %u\n", kTool,
                 opt.flows, chaos::kMaxBurstFlows);
    return false;
  }
  return opt.dests >= 2 && opt.duration > 0.0 && opt.rate > 0.0 &&
         opt.mttr > 0.0;
}

/// Inter-AS links ranked by bytes carried (descending, deterministic
/// tie-break on router:port), capped at `max_links`. Every value is driven
/// by the simulation clock, so the section is byte-reproducible.
obs::Json links_json(const dp::Network& net, std::size_t max_links) {
  struct LinkRow {
    std::uint32_t router;
    std::uint32_t port;
    std::uint32_t peer_router;
    std::uint64_t bytes;
    std::uint64_t pkts;
    std::uint64_t drops_overflow;
    std::uint64_t drops_down;
    double queue_ratio;
  };
  std::vector<LinkRow> rows;
  for (std::size_t r = 0; r < net.num_routers(); ++r) {
    const dp::Router& router =
        net.router(RouterId(static_cast<std::uint32_t>(r)));
    for (std::size_t pi = 0; pi < router.num_ports(); ++pi) {
      const dp::Port& port =
          router.port(PortId(static_cast<std::uint32_t>(pi)));
      if (port.kind != dp::PortKind::Ebgp || port.bytes_sent_total == 0) {
        continue;
      }
      rows.push_back(LinkRow{static_cast<std::uint32_t>(r),
                             static_cast<std::uint32_t>(pi), port.peer.id,
                             port.bytes_sent_total, port.pkts_sent_total,
                             port.drops_overflow, port.drops_down,
                             port.queue_ratio()});
    }
  }
  std::sort(rows.begin(), rows.end(), [](const LinkRow& a, const LinkRow& b) {
    if (a.bytes != b.bytes) return a.bytes > b.bytes;
    if (a.router != b.router) return a.router < b.router;
    return a.port < b.port;
  });
  if (rows.size() > max_links) rows.resize(max_links);
  obs::Json arr = obs::Json::array();
  for (const LinkRow& row : rows) {
    obs::Json j = obs::Json::object();
    j.set("router", obs::Json::num(static_cast<std::uint64_t>(row.router)));
    j.set("port", obs::Json::num(static_cast<std::uint64_t>(row.port)));
    j.set("peer_router",
          obs::Json::num(static_cast<std::uint64_t>(row.peer_router)));
    j.set("bytes_sent", obs::Json::num(row.bytes));
    j.set("pkts_sent", obs::Json::num(row.pkts));
    j.set("drops_overflow", obs::Json::num(row.drops_overflow));
    j.set("drops_down", obs::Json::num(row.drops_down));
    j.set("queue_ratio", obs::Json::num(row.queue_ratio));
    arr.push(std::move(j));
  }
  return arr;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage(argv[0]);
    return 1;
  }
  topo::AsGraph g;
  if (!opt.topo_file.empty()) {
    std::ifstream in(opt.topo_file);
    if (!in) {
      std::fprintf(stderr, "mifo-chaos: cannot open %s\n",
                   opt.topo_file.c_str());
      return 1;
    }
    try {
      g = topo::parse(in);
    } catch (const topo::ParseError& e) {
      std::fprintf(stderr, "mifo-chaos: %s: %s\n", opt.topo_file.c_str(),
                   e.what());
      return 1;
    }
  } else {
    topo::GeneratorParams gp;
    gp.num_ases = opt.ases;
    gp.seed = opt.seed;
    g = topo::generate_topology(gp);
  }
  // Safety under churn is only claimed inside the loop-freedom theorem's
  // premise (paper Section III-A): an acyclic provider-customer hierarchy.
  if (!topo::is_pc_acyclic(g)) {
    std::printf("verdict: PREMISE-VIOLATED (the provider-customer "
                "hierarchy has a cycle)\n");
    return 2;
  }
  const std::size_t n = g.num_ases();

  // Deployment: prefix owners spread across the id space, every router
  // MIFO-enabled, one daemon per AS on a 10 ms tick.
  testbed::EmulationBuilder builder(g, std::vector<bool>(n, false));
  const std::size_t num_dests = std::min(opt.dests, n);
  std::vector<AsId> owner_ases;
  for (std::size_t i = 0; i < num_dests; ++i) {
    const std::size_t as = i * (n - 1) / (num_dests > 1 ? num_dests - 1 : 1);
    owner_ases.push_back(AsId(static_cast<std::uint32_t>(as)));
    builder.attach_host(owner_ases.back());
  }
  auto em = builder.finalize();
  dp::Network& net = *em.net;

  std::vector<AsId> all_ases;
  for (std::size_t i = 0; i < n; ++i) {
    all_ases.push_back(AsId(static_cast<std::uint32_t>(i)));
  }
  em.enable_mifo(all_ases, dp::RouterConfig{}, 0.01);

  obs::Tracer tracer(8192);
  // Spare-adverts tick on every link and would evict the packet walks the
  // timeline section exists to show; chaos events and packet hops stay.
  tracer.set_keep_spare_adverts(false);
  net.set_tracer(&tracer);

  // Seeded background traffic so faults hit live flows, not an idle fabric.
  Rng traffic_rng(hash_combine(opt.seed, 0x7aff1c));
  for (std::size_t i = 0; i < opt.flows; ++i) {
    dp::FlowParams fp;
    const std::size_t a = traffic_rng.bounded(em.hosts.size());
    std::size_t b = traffic_rng.bounded(em.hosts.size());
    if (b == a) b = (b + 1) % em.hosts.size();
    fp.src = em.hosts[a].host;
    fp.dst = em.hosts[b].host;
    fp.size = static_cast<Bytes>(1 + traffic_rng.bounded(4)) * kMegaByte;
    fp.start = traffic_rng.uniform(0.0, 0.6 * opt.duration);
    net.start_flow(fp);
  }

  // The plan: scripted file, or seeded random churn.
  chaos::Plan plan;
  if (!opt.plan_file.empty()) {
    std::ifstream in(opt.plan_file);
    if (!in) {
      std::fprintf(stderr, "mifo-chaos: cannot open %s\n",
                   opt.plan_file.c_str());
      return 1;
    }
    std::string error;
    const auto parsed = chaos::parse_plan(in, error);
    if (!parsed) {
      std::fprintf(stderr, "mifo-chaos: %s: %s\n", opt.plan_file.c_str(),
                   error.c_str());
      return 1;
    }
    plan = *parsed;
  } else {
    chaos::GenParams gp;
    gp.seed = opt.seed;
    gp.duration = opt.duration;
    gp.rate = opt.rate;
    gp.mttr = opt.mttr;
    gp.prefix_owners = owner_ases;
    plan = chaos::generate_plan(g, gp);
  }
  if (opt.mutate_valley) {
    chaos::Event ev;
    ev.t = 0.4 * plan.duration;
    ev.kind = chaos::EventKind::PlantValley;
    plan.events.push_back(ev);
    plan.normalize();
  }
  if (opt.mutate_stale_route) {
    chaos::Event ev;
    ev.t = 0.6 * plan.duration;
    ev.kind = chaos::EventKind::PlantStaleRoute;
    plan.events.push_back(ev);
    plan.normalize();
  }
  if (const auto bad = chaos::validate_plan(plan, n)) {
    std::fprintf(stderr,
                 "mifo-chaos: plan event '%s' names an AS outside the "
                 "%zu-AS topology\n",
                 bad->to_string().c_str(), n);
    return 1;
  }
  if (opt.print_plan) std::printf("%s", chaos::format_plan(plan).c_str());

  obs::Registry reg;
  net.publish_metrics(reg, "phase=start");  // reserve ids deterministically
  chaos::EngineConfig ec;
  ec.seed = opt.seed;
  ec.verify_mode = opt.verify_mode;
  chaos::Engine engine(em, g, ec);
  engine.attach_registry(reg, "");
  const chaos::Report report = engine.run(plan);

  // Snapshot the tracer now: the ring must reflect the churn window, not
  // the daemon chatter of the long drain below.
  obs::Json timeline = obs::to_json(tracer);

  // Drain remaining traffic so the drop accounting below is final.
  net.run_to_completion(plan.duration + 30.0);

  if (!opt.quiet) {
    std::printf("topology: %zu ASes, %zu routers, %zu prefixes, %zu flows\n",
                n, net.num_routers(), em.hosts.size(), net.flows().size());
    std::printf("plan: %zu events (%zu applied), duration %.3f s\n",
                plan.events.size(), report.events_applied, plan.duration);
    // One column width per run, so the status column lines up even when
    // an event's exact rendering outgrows the default 42.
    int width = 42;
    for (const auto& ae : report.log) {
      width = std::max(width, static_cast<int>(ae.event.to_string().size()));
    }
    for (const auto& ae : report.log) {
      std::printf("  %-*s %s%s%s  %s\n", width, ae.event.to_string().c_str(),
                  ae.applied ? "applied" : "skipped",
                  ae.applied && !ae.clean_immediate ? " UNSAFE" : "",
                  ae.applied && !ae.clean_reconverged ? " UNSAFE-RECONV" : "",
                  ae.detail.c_str());
    }
    std::printf("verification: %zu snapshots, %zu clean; deflection graph "
                "last pass: %zu states, %zu edges\n",
                report.checks_run, report.checks_clean,
                report.last_stats.states, report.last_stats.edges);
    if (report.verify_mode != chaos::VerifyMode::Full) {
      std::printf("incremental: %zu destinations re-proved, %zu cache hits "
                  "across %zu snapshots (%s mode, %zu differential "
                  "mismatches)\n",
                  report.total_dirty_destinations, report.total_cache_hits,
                  report.checks_run, chaos::to_string(report.verify_mode),
                  report.differential_mismatches);
    }
    if (report.route_events != 0) {
      std::printf("route delta: %zu events, %zu destinations recomputed, "
                  "%zu patched, %zu kept, %zu differential mismatches\n",
                  report.route_events, report.total_route_recomputed,
                  report.total_route_patched, report.total_route_unchanged,
                  report.route_differential_mismatches);
    }
    std::size_t done = 0;
    for (const auto& f : net.flows()) done += f.done ? 1 : 0;
    std::printf("traffic: %zu/%zu flows completed, %llu/%llu pkts "
                "delivered\n",
                done, net.flows().size(),
                static_cast<unsigned long long>(net.delivered_pkts()),
                static_cast<unsigned long long>(net.injected_pkts()));
    for (const auto& [reason, cnt] : net.drop_breakdown()) {
      if (cnt != 0) {
        std::printf("  drops %-14s %llu\n", reason.c_str(),
                    static_cast<unsigned long long>(cnt));
      }
    }
  }

  for (const auto& v : report.violations) {
    const auto& trigger = report.log[v.event_index];
    std::printf("COUNTEREXAMPLE [t=%.4f after '%s'] %s\n", v.t,
                trigger.event.to_string().c_str(), v.description.c_str());
  }

  // Artifact (extended mifo.run_artifact.v1 with the chaos section).
  net.publish_metrics(reg, "phase=end");
  obs::Json root = obs::Json::object();
  root.set("schema", obs::Json::str("mifo.run_artifact.v1"));
  root.set("bench", obs::Json::str("chaos_run"));
  obs::Json scale = obs::Json::object();
  scale.set("topo_n", obs::Json::num(static_cast<std::uint64_t>(n)));
  scale.set("flows",
            obs::Json::num(static_cast<std::uint64_t>(opt.flows)));
  scale.set("dest_pool",
            obs::Json::num(static_cast<std::uint64_t>(num_dests)));
  scale.set("arrival", obs::Json::num(0.0));
  scale.set("seed", obs::Json::num(static_cast<std::uint64_t>(opt.seed)));
  root.set("scale", std::move(scale));
  root.set("chaos", report.to_json());
  root.set("drops", obs::drops_json(net.drop_breakdown()));
  root.set("timeline", std::move(timeline));
  root.set("links", links_json(net, 64));
  root.set("metrics", obs::to_json(reg.snapshot()));
  const std::string path = obs::write_artifact("chaos_run", root);
  if (!path.empty() && !opt.quiet) {
    std::printf("artifact: %s\n", path.c_str());
  }

  if (report.safe) {
    std::printf("verdict: SAFE-UNDER-CHURN (%zu events, %zu snapshots all "
                "loop-free and lint-clean)\n",
                report.events_applied, report.checks_run);
    return 0;
  }
  std::printf("verdict: UNSAFE (%zu violations across %zu snapshots)\n",
              report.violations.size(), report.checks_run);
  return 2;
}
