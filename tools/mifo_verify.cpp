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
// error (including a malformed numeric flag, a --gen size below the
// generator's tier-1 clique and a --topo line topo::parse rejects), 2 =
// cycle / valley / blackhole found, lint issues, a cyclic
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
#include "verify/incremental.hpp"

using namespace mifo;

namespace {

constexpr const char* kTool = "mifo-verify";
/// The generator's tier-1 clique: the smallest topology it can build.
constexpr std::size_t kMinAses = topo::GeneratorParams{}.num_tier1;

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
      "  --gen N          generate an N-AS power-law topology (default 200,\n"
      "                   at least %zu)\n"
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
      argv0, kMinAses);
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
  if (opt.gen_ases < kMinAses) {
    std::fprintf(stderr, "%s: --gen: %zu ASes is below the minimum of %zu\n",
                 kTool, opt.gen_ases, kMinAses);
    return false;
  }
  return opt.dests >= 1;
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
  verify::IncrementalVerifier inc(
      verify::IncrementalConfig{.blackhole = opt.blackhole});
  if (opt.incremental) {
    net.attach_change_log(&change_log);
    const auto cold = inc.check(net, g, em.daemons, owners, change_log);
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
  // produces the verdict and the from-scratch run is its oracle; otherwise
  // the from-scratch run is the verdict.
  verify::Verdict verdict;
  bool differential_ok = true;
  if (opt.incremental) {
    verdict = inc.check(net, g, em.daemons, owners, change_log);
    change_log.clear();
    if (!opt.quiet) {
      std::printf("incremental: warm pass re-proved %zu/%zu destinations "
                  "(%zu cache hits, %zu states explored)\n",
                  verdict.stats.dirty_destinations, verdict.stats.destinations,
                  verdict.stats.cache_hits, verdict.stats.states_explored);
    }
    differential_ok = verify::same_findings(
        verdict,
        verify::check_from_scratch(net, g, em.daemons, owners, inc.config()));
    std::printf("differential: incremental verdicts %s the full provers\n",
                differential_ok ? "identical to" : "DIVERGED from");
  } else {
    verdict = verify::check_from_scratch(net, g, em.daemons, owners,
                                         inc.config());
  }

  if (!opt.quiet) {
    std::printf("deployment: %zu routers, %zu prefixes, %zu alt routes "
                "installed\n",
                net.num_routers(), verdict.loop.stats.destinations, alt_routes);
    std::printf("deflection graph: %zu states, %zu edges explored\n",
                verdict.loop.stats.states, verdict.loop.stats.edges);
    for (const auto& issue : verdict.lint) {
      std::printf("lint: %s\n", issue.to_string().c_str());
    }
  }

  for (const auto& cycle : verdict.loop.cycles) {
    std::printf("COUNTEREXAMPLE %s\n", cycle.to_string().c_str());
  }
  for (const auto& v : verdict.valley.violations) {
    std::printf("COUNTEREXAMPLE valley %s\n", v.to_string().c_str());
  }
  for (const auto& b : verdict.reach.blackholes) {
    std::printf("COUNTEREXAMPLE %s\n", b.to_string().c_str());
  }
  const bool clean = verdict.clean() && differential_ok;
  if (clean) {
    std::printf("verdict: LOOP-FREE (%zu destinations, lint clean)\n",
                verdict.loop.stats.destinations);
    return 0;
  }
  const char* label = "LINT-DIRTY";
  if (!verdict.loop.loop_free) {
    label = "CYCLE-FOUND";
  } else if (!verdict.valley.valley_free) {
    label = "VALLEY-FOUND";
  } else if (!verdict.reach.clean) {
    label = "BLACKHOLE-FOUND";
  } else if (!differential_ok) {
    label = "DIFFERENTIAL-MISMATCH";
  }
  std::printf("verdict: %s (%zu cycles, %zu valleys, %zu blackholes, "
              "%zu lint issues)\n",
              label, verdict.loop.cycles.size(),
              verdict.valley.violations.size(),
              verdict.reach.blackholes.size(), verdict.lint.size());
  return 2;
}
