// mifo-verify — static forwarding-state verifier (docs/VERIFICATION.md).
//
// Builds a concrete deployment (generated or loaded topology -> border
// routers, BGP-derived FIBs, one daemon tick to program alt ports), then
// statically proves per-destination loop-freedom of the installed state and
// lints FIB/RIB consistency — no packets are run.
//
//   mifo-verify --gen 300 --seed 11            # generated power-law topology
//   mifo-verify --topo mifo_topology.txt       # CAIDA-style text dump
//   mifo-verify --gen 120 --mutate-valley      # plant an Eq.3 violation;
//                                              # expects a reported cycle
//   mifo-verify --gen 120 --mutate-blackhole   # strand a prefix at a transit
//                                              # router; expects a blackhole
//   mifo-verify --gen 300 --incremental        # dirty-set engine + full-
//                                              # prover differential
//
// Exit status: 0 = loop-free, valley-free and lint-clean, 1 = usage/input
// error (including a malformed numeric flag and a --topo line topo::parse
// rejects), 2 = cycle / valley / blackhole found, lint issues, a cyclic
// provider hierarchy (outside the loop-freedom theorem's premise; verdict
// PREMISE-VIOLATED), or (under --incremental) an incremental-vs-full
// differential mismatch.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "dataplane/change_log.hpp"
#include "flags.hpp"
#include "testbed/emulation.hpp"
#include "topo/analysis.hpp"
#include "topo/generator.hpp"
#include "topo/serialization.hpp"
#include "verify/changeset.hpp"
#include "verify/deflection_graph.hpp"
#include "verify/incremental.hpp"
#include "verify/lint.hpp"
#include "verify/reachability.hpp"
#include "verify/valley.hpp"

using namespace mifo;

namespace {

constexpr const char* kTool = "mifo-verify";

struct Options {
  std::string topo_file;
  std::size_t gen_ases = 200;
  std::uint64_t seed = 1;
  std::size_t dests = 8;
  bool expand_tier1 = false;
  bool mutate_valley = false;
  bool mutate_blackhole = false;
  bool blackhole = false;
  bool incremental = false;
  bool quiet = false;
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--topo FILE | --gen N] [--seed S] [--dests K]\n"
      "          [--expand-tier1] [--incremental] [--blackhole]\n"
      "          [--mutate-valley] [--mutate-blackhole] [-q]\n"
      "  --topo FILE      load a CAIDA-style topology dump\n"
      "  --gen N          generate an N-AS power-law topology (default 200)\n"
      "  --seed S         generator seed (default 1)\n"
      "  --dests K        destination prefixes to verify (default 8)\n"
      "  --expand-tier1   per-adjacency border routers in tier-1 ASes\n"
      "  --incremental    prove via the dirty-set engine and cross-check\n"
      "                   every verdict against the full provers\n"
      "  --blackhole      also run the reachability/blackhole analysis\n"
      "  --mutate-valley  plant an Eq.3-violating deflection ring and\n"
      "                   expect the verifier to report the cycle\n"
      "  --mutate-blackhole  strand one prefix at a transit router and\n"
      "                   expect the blackhole analysis to report it\n"
      "  -q               verdict only\n",
      argv0);
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--topo") {
      const char* v = next();
      if (!v) return false;
      opt.topo_file = v;
    } else if (arg == "--gen") {
      const char* v = next();
      if (!v || !tools::parse_flag(kTool, arg, v, opt.gen_ases)) return false;
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v || !tools::parse_flag(kTool, arg, v, opt.seed)) return false;
    } else if (arg == "--dests") {
      const char* v = next();
      if (!v || !tools::parse_flag(kTool, arg, v, opt.dests)) return false;
    } else if (arg == "--expand-tier1") {
      opt.expand_tier1 = true;
    } else if (arg == "--mutate-valley") {
      opt.mutate_valley = true;
    } else if (arg == "--mutate-blackhole") {
      opt.mutate_blackhole = true;
      opt.blackhole = true;
    } else if (arg == "--blackhole") {
      opt.blackhole = true;
    } else if (arg == "--incremental") {
      opt.incremental = true;
    } else if (arg == "-q") {
      opt.quiet = true;
    } else {
      return false;
    }
  }
  return opt.gen_ases >= 4 && opt.dests >= 1;
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
      std::fprintf(stderr, "mifo-verify: cannot open %s\n",
                   opt.topo_file.c_str());
      return 1;
    }
    try {
      g = topo::parse(in);
    } catch (const topo::ParseError& e) {
      std::fprintf(stderr, "mifo-verify: %s: %s\n", opt.topo_file.c_str(),
                   e.what());
      return 1;
    }
  } else {
    topo::GeneratorParams gp;
    gp.num_ases = opt.gen_ases;
    gp.seed = opt.seed;
    g = topo::generate_topology(gp);
  }
  if (!opt.quiet) {
    std::printf("topology: %s\n",
                topo::attributes_report(topo::attributes(g)).c_str());
  }
  // The loop-freedom theorem (paper Section III-A) assumes an acyclic
  // provider-customer hierarchy; nothing outside it is ever certified.
  if (!topo::is_pc_acyclic(g)) {
    std::printf("verdict: PREMISE-VIOLATED (the provider-customer "
                "hierarchy has a cycle)\n");
    return 2;
  }

  // Destination prefixes: one host per chosen AS, spread across the id
  // space (deterministic; includes AS 0 and the last AS).
  const std::size_t n = g.num_ases();
  std::vector<bool> expand(n, false);
  if (opt.expand_tier1 && !opt.mutate_valley) {
    for (std::size_t i = 0; i < n; ++i) {
      expand[i] = g.info(AsId(static_cast<std::uint32_t>(i))).tier == 1;
    }
  }
  testbed::EmulationBuilder builder(g, expand);
  const std::size_t num_dests = std::min(opt.dests, n);
  for (std::size_t i = 0; i < num_dests; ++i) {
    const std::size_t as = i * (n - 1) / (num_dests > 1 ? num_dests - 1 : 1);
    builder.attach_host(AsId(static_cast<std::uint32_t>(as)));
  }
  auto em = builder.finalize();
  dp::Network& net = *em.net;

  // Full MIFO deployment: flag every router, then one daemon tick per AS to
  // program the alt ports exactly as a live system would.
  for (std::size_t i = 0; i < net.num_routers(); ++i) {
    net.router(RouterId(static_cast<std::uint32_t>(i)))
        .config()
        .mifo_enabled = true;
  }
  for (const auto& daemon : em.daemons) daemon->tick(net, 0.0);

  std::vector<std::pair<dp::Addr, AsId>> owners;
  owners.reserve(em.hosts.size());
  for (const auto& att : em.hosts) owners.emplace_back(att.addr, att.as);

  // --incremental: cold-prove everything through the dirty-set engine, then
  // let the mutation hooks record what changes; the warm pass below re-proves
  // only the dirtied destinations and must match the full provers exactly.
  dp::ChangeLog change_log;
  verify::ChangeSet changes;
  verify::IncrementalVerifier inc(
      verify::IncrementalConfig{.blackhole = opt.blackhole});
  if (opt.incremental) {
    net.attach_change_log(&change_log);
    const auto cold = inc.check(net, g, em.daemons, owners, changes);
    if (!opt.quiet) {
      std::printf("incremental: cold pass proved %zu destinations "
                  "(%zu states explored)\n",
                  cold.stats.dirty_destinations, cold.stats.states_explored);
    }
  }

  if (opt.mutate_valley) {
    const testbed::ValleyRing planted = testbed::plant_valley_ring(em, g);
    if (!planted.error.empty()) {
      std::fprintf(stderr, "mifo-verify: %s\n", planted.error.c_str());
      return 1;
    }
    if (!opt.quiet) {
      const std::vector<AsId>& ring = planted.ring;
      std::printf("mutated: Tag-Check disabled on peering ring AS%u-AS%u-"
                  "AS%u, alt ports wired clockwise for dst=%u\n",
                  ring[0].value(), ring[1].value(), ring[2].value(),
                  planted.dst);
    }
  }

  if (opt.mutate_blackhole) {
    // Strand one prefix: remove the FIB entry at a router some neighbor's
    // default path forwards through. Traffic entering upstream reaches a
    // router with no route — the exact no-route blackhole the reachability
    // analysis exists to catch.
    bool planted = false;
    for (const auto& att : em.hosts) {
      const dp::Addr dst = att.addr;
      for (std::size_t r = 0; r < net.num_routers() && !planted; ++r) {
        const dp::Router& router =
            net.router(RouterId(static_cast<std::uint32_t>(r)));
        const auto fe = router.fib().lookup(dst);
        if (!fe) continue;
        const dp::Port& def = router.port(fe->out_port);
        if (def.kind != dp::PortKind::Ebgp || !def.peer.is_router()) continue;
        const RouterId victim(def.peer.id);
        if (!net.router(victim).fib().contains(dst)) continue;
        net.router(victim).fib().remove(dst);
        planted = true;
        if (!opt.quiet) {
          std::printf("mutated: FIB entry for dst=%u removed at r%u (r%zu "
                      "still forwards to it)\n",
                      dst, victim.value(), r);
        }
      }
      if (planted) break;
    }
    if (!planted) {
      std::fprintf(stderr, "mifo-verify: no transit FIB entry to strand\n");
      return 1;
    }
  }

  std::size_t alt_routes = 0;
  for (const dp::Router& r : net.routers()) {
    alt_routes += r.fib().num_alt_routes();
  }

  // Verification proper. Under --incremental the warm dirty-set pass
  // produces the verdicts and the untouched full provers act as the oracle;
  // otherwise the full provers run directly.
  verify::LoopCheck loop_check;
  verify::ValleyCheck valley_check;
  verify::ReachabilityCheck reach;
  std::vector<verify::LintIssue> deployment_issues;
  bool differential_ok = true;

  const auto rendered = [](const auto& items) {
    std::vector<std::string> out;
    out.reserve(items.size());
    for (const auto& item : items) out.push_back(item.to_string());
    return out;
  };

  if (opt.incremental) {
    changes.drain(change_log);
    auto warm = inc.check(net, g, em.daemons, owners, changes);
    changes.clear();
    if (!opt.quiet) {
      std::printf("incremental: warm pass re-proved %zu/%zu destinations "
                  "(%zu cache hits, %zu states explored)\n",
                  warm.stats.dirty_destinations, warm.stats.destinations,
                  warm.stats.cache_hits, warm.stats.states_explored);
    }
    // Differential oracle: the merged incremental result must be verdict-
    // and counterexample-identical to a from-scratch full run, in order
    // (both sides emit destination-ascending).
    const auto full_loop = verify::check_loop_freedom(net);
    const auto full_valley = verify::check_valley_freedom(net);
    const auto full_lint = verify::lint_deployment(net, g, em.daemons, owners);
    differential_ok =
        full_loop.loop_free == warm.loop.loop_free &&
        rendered(full_loop.cycles) == rendered(warm.loop.cycles) &&
        rendered(full_valley.violations) == rendered(warm.valley.violations) &&
        rendered(full_lint) == rendered(warm.lint);
    if (opt.blackhole) {
      const auto full_reach = verify::check_reachability(net);
      differential_ok =
          differential_ok &&
          rendered(full_reach.blackholes) == rendered(warm.reach.blackholes);
    }
    std::printf("differential: incremental verdicts %s the full provers\n",
                differential_ok ? "identical to" : "DIVERGED from");
    loop_check = std::move(warm.loop);
    valley_check = std::move(warm.valley);
    reach = std::move(warm.reach);
    deployment_issues = std::move(warm.lint);
  } else {
    loop_check = verify::check_loop_freedom(net);
    valley_check = verify::check_valley_freedom(net);
    if (opt.blackhole) reach = verify::check_reachability(net);
    deployment_issues = verify::lint_deployment(net, g, em.daemons, owners);
  }
  auto issues = verify::lint_topology(g);
  issues.insert(issues.end(), deployment_issues.begin(),
                deployment_issues.end());

  if (!opt.quiet) {
    std::printf("deployment: %zu routers, %zu prefixes, %zu alt routes "
                "installed\n",
                net.num_routers(), loop_check.stats.destinations, alt_routes);
    std::printf("deflection graph: %zu states, %zu edges explored\n",
                loop_check.stats.states, loop_check.stats.edges);
    for (const auto& issue : issues) {
      std::printf("lint: %s\n", issue.to_string().c_str());
    }
  }

  for (const auto& cycle : loop_check.cycles) {
    std::printf("COUNTEREXAMPLE %s\n", cycle.to_string().c_str());
  }
  for (const auto& v : valley_check.violations) {
    std::printf("COUNTEREXAMPLE valley %s\n", v.to_string().c_str());
  }
  for (const auto& b : reach.blackholes) {
    std::printf("COUNTEREXAMPLE %s\n", b.to_string().c_str());
  }
  const bool clean = loop_check.loop_free && valley_check.valley_free &&
                     reach.clean && issues.empty() && differential_ok;
  if (clean) {
    std::printf("verdict: LOOP-FREE (%zu destinations, lint clean)\n",
                loop_check.stats.destinations);
    return 0;
  }
  const char* verdict = "LINT-DIRTY";
  if (!loop_check.loop_free) {
    verdict = "CYCLE-FOUND";
  } else if (!valley_check.valley_free) {
    verdict = "VALLEY-FOUND";
  } else if (!reach.clean) {
    verdict = "BLACKHOLE-FOUND";
  } else if (!differential_ok) {
    verdict = "DIFFERENTIAL-MISMATCH";
  }
  std::printf("verdict: %s (%zu cycles, %zu valleys, %zu blackholes, "
              "%zu lint issues)\n",
              verdict, loop_check.cycles.size(),
              valley_check.violations.size(), reach.blackholes.size(),
              issues.size());
  return 2;
}
