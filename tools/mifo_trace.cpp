// mifo-trace — flight-recorder reader (docs/OBSERVABILITY.md).
//
// Renders the observability sections of a mifo.run_artifact.v1 file (or a
// live dump on stdin via "-"): hop-by-hop flow paths reconstructed from the
// merged cross-shard timeline, per-failure recovery spans with the
// per-class latency breakdown, and the top-N congested inter-AS links.
//
//   mifo-trace chaos_run.json                 # everything
//   mifo-trace chaos_run.json --flow 3        # one flow's annotated walk
//   mifo-trace chaos_run.json --links 10      # top-10 congested links
//   mifo-trace chaos_run.json --check         # gate mode: validate ordering
//
// Gate mode (--check) asserts the timeline is ordered epoch-major with
// non-decreasing sim time inside each epoch (the merge invariant
// obs::trace_order guarantees) and that every span's milestones are
// causally ordered. Exit 0 = valid, 1 = usage/input error, 2 = violated.
// All output is a pure function of the artifact bytes, so two renderings
// of byte-identical artifacts are themselves byte-identical.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "flags.hpp"
#include "obs/artifact.hpp"

using namespace mifo;

namespace {

constexpr const char* kTool = "mifo-trace";

struct Options {
  std::string path;
  std::uint64_t flow = 0;
  bool have_flow = false;
  std::size_t links = 5;
  std::size_t max_flows = 8;
  bool check = false;
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s ARTIFACT.json|- [--flow N] [--flows N] [--links N] "
      "[--check]\n"
      "  ARTIFACT     mifo.run_artifact.v1 file; '-' reads stdin\n"
      "  --flow N     render only flow N's hop-by-hop walk\n"
      "  --flows N    cap the number of flows rendered (default 8)\n"
      "  --links N    top-N congested links (default 5)\n"
      "  --check      validate timeline ordering + span causality; quiet\n",
      argv0);
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--flow" && (v = next())) {
      if (!tools::parse_flag(kTool, arg, v, opt.flow)) return false;
      opt.have_flow = true;
    } else if (arg == "--flows" && (v = next())) {
      if (!tools::parse_flag(kTool, arg, v, opt.max_flows)) return false;
    } else if (arg == "--links" && (v = next())) {
      if (!tools::parse_flag(kTool, arg, v, opt.links)) return false;
    } else if (arg == "--check") {
      opt.check = true;
    } else if (opt.path.empty() && !arg.empty() && arg[0] != '-') {
      opt.path = arg;
    } else if (opt.path.empty() && arg == "-") {
      opt.path = arg;
    } else {
      return false;
    }
  }
  return !opt.path.empty();
}

double num_of(const obs::Json& obj, const char* key, double fallback) {
  const obs::Json* j = obj.find(key);
  return j != nullptr ? j->number_or(fallback) : fallback;
}

std::string text_of(const obs::Json& obj, const char* key) {
  const obs::Json* j = obj.find(key);
  return j != nullptr && j->is_string() ? j->text() : std::string();
}

/// A packet-emission hop reconstructed from one timeline event.
struct Hop {
  double t = 0.0;
  std::uint64_t epoch = 0;
  std::uint32_t router = 0;
  std::uint32_t port = 0;
  std::uint32_t shard = 0;
  std::string kind;
};

/// Per-flow slice of the timeline: emissions plus terminal events.
struct FlowTrace {
  std::vector<Hop> hops;
  std::size_t events = 0;
  std::uint32_t origin_shard = 0;
  std::uint64_t inject_epoch = 0;
};

bool is_emission(const std::string& kind) {
  return kind == "forward" || kind == "deflect" || kind == "encap" ||
         kind == "decap" || kind == "DROP(valley)" ||
         kind == "DROP(no-route)" || kind == "DROP(ttl)";
}

/// The flow's forwarding path: routers in first-visit order over its
/// emission events — repeated packets retread the same routers, so first
/// visits spell out the path the emulator actually used.
std::vector<std::uint32_t> first_visit_path(const FlowTrace& ft) {
  std::vector<std::uint32_t> path;
  for (const Hop& h : ft.hops) {
    bool seen = false;
    for (const std::uint32_t r : path) seen = seen || r == h.router;
    if (!seen) path.push_back(h.router);
  }
  return path;
}

int check_artifact(const obs::Json& root) {
  const obs::Json* tl = root.find("timeline");
  if (tl == nullptr || tl->find("events") == nullptr) {
    std::fprintf(stderr, "mifo-trace: no timeline section\n");
    return 2;
  }
  // Merge invariant: epoch-major, sim time non-decreasing within an epoch.
  double prev_epoch = -1.0;
  double prev_t = -1.0;
  std::size_t idx = 0;
  for (const obs::Json& e : tl->find("events")->items()) {
    const double epoch = num_of(e, "epoch", 0.0);
    const double t = num_of(e, "t", 0.0);
    if (epoch < prev_epoch ||
        (epoch == prev_epoch && t < prev_t)) {
      std::fprintf(stderr,
                   "mifo-trace: ordering violated at event %zu "
                   "(epoch %.0f t %.9f after epoch %.0f t %.9f)\n",
                   idx, epoch, t, prev_epoch, prev_t);
      return 2;
    }
    prev_epoch = epoch;
    prev_t = t;
    ++idx;
  }
  // Span causality: injected <= first_impact, reconverged <= verified.
  if (const obs::Json* chaos = root.find("chaos")) {
    if (const obs::Json* spans = chaos->find("spans")) {
      std::size_t si = 0;
      for (const obs::Json& sp : spans->items()) {
        const double inj = num_of(sp, "t_injected", 0.0);
        const double imp = num_of(sp, "t_first_impact", inj);
        const double rec = num_of(sp, "t_reconverged", inj);
        const double ver = num_of(sp, "t_verified", rec);
        if (imp < inj || rec < inj || ver < rec) {
          std::fprintf(stderr, "mifo-trace: span %zu not causally ordered\n",
                       si);
          return 2;
        }
        ++si;
      }
    }
  }
  std::printf("mifo-trace: OK (%zu timeline events, ordering and span "
              "causality hold)\n",
              idx);
  return 0;
}

void render_flows(const obs::Json& tl, const Options& opt) {
  // Group timeline events by flow id, preserving merged order.
  std::map<std::uint64_t, FlowTrace> flows;
  for (const obs::Json& e : tl.find("events")->items()) {
    const obs::Json* f = e.find("flow");
    if (f == nullptr) continue;  // control-plane / chaos events
    const auto id = static_cast<std::uint64_t>(f->number_or(0.0));
    if (opt.have_flow && id != opt.flow) continue;
    FlowTrace& ft = flows[id];
    ++ft.events;
    if (ft.events == 1) {
      ft.origin_shard =
          static_cast<std::uint32_t>(num_of(e, "origin_shard", 0.0));
      ft.inject_epoch =
          static_cast<std::uint64_t>(num_of(e, "inject_epoch", 0.0));
    }
    const std::string kind = text_of(e, "kind");
    if (!is_emission(kind)) continue;
    Hop h;
    h.t = num_of(e, "t", 0.0);
    h.epoch = static_cast<std::uint64_t>(num_of(e, "epoch", 0.0));
    h.router = static_cast<std::uint32_t>(num_of(e, "router", 0.0));
    h.port = static_cast<std::uint32_t>(num_of(e, "port", 0.0));
    h.shard = static_cast<std::uint32_t>(num_of(e, "shard", 0.0));
    h.kind = kind;
    ft.hops.push_back(h);
  }
  if (flows.empty()) {
    std::printf("flows: none traced%s\n",
                opt.have_flow ? " (flow filter excluded everything)" : "");
    return;
  }
  std::printf("=== flow paths (%zu traced flow%s) ===\n", flows.size(),
              flows.size() == 1 ? "" : "s");
  std::size_t rendered = 0;
  for (const auto& [id, ft] : flows) {
    if (rendered++ >= opt.max_flows) {
      std::printf("  ... %zu more flows (--flows N to raise the cap)\n",
                  flows.size() - opt.max_flows);
      break;
    }
    const std::vector<std::uint32_t> path = first_visit_path(ft);
    std::printf("flow %llu (origin shard %u, inject epoch %llu): ",
                static_cast<unsigned long long>(id), ft.origin_shard,
                static_cast<unsigned long long>(ft.inject_epoch));
    for (std::size_t i = 0; i < path.size(); ++i) {
      std::printf("%sr%u", i == 0 ? "" : " -> ", path[i]);
    }
    std::printf("  [%zu events, %zu emissions]\n", ft.events, ft.hops.size());
    if (opt.have_flow) {
      for (const Hop& h : ft.hops) {
        std::printf("  t=%.6f epoch=%llu shard=%u r%u:p%u %s\n", h.t,
                    static_cast<unsigned long long>(h.epoch), h.shard,
                    h.router, h.port, h.kind.c_str());
      }
    }
  }
}

void render_spans(const obs::Json& chaos) {
  const obs::Json* spans = chaos.find("spans");
  if (spans == nullptr || spans->items().empty()) {
    std::printf("spans: none (no applied fault events)\n");
    return;
  }
  std::printf("=== fault spans ===\n");
  std::printf("%-4s %-14s %10s %12s %12s %10s %9s %7s %9s %7s\n", "idx",
              "kind", "injected", "first_impact", "reconverged", "verified",
              "latency", "dirty", "vstates", "cached");
  for (const obs::Json& sp : spans->items()) {
    const double inj = num_of(sp, "t_injected", 0.0);
    const double imp = num_of(sp, "t_first_impact", -1.0);
    const double rec = num_of(sp, "t_reconverged", -1.0);
    const double ver = num_of(sp, "t_verified", -1.0);
    char imp_s[24] = "-";
    char rec_s[24] = "-";
    char ver_s[24] = "-";
    char lat_s[24] = "-";
    if (imp >= 0.0) std::snprintf(imp_s, sizeof(imp_s), "%.4f", imp);
    if (rec >= 0.0) std::snprintf(rec_s, sizeof(rec_s), "%.4f", rec);
    if (ver >= 0.0) std::snprintf(ver_s, sizeof(ver_s), "%.4f", ver);
    if (ver >= 0.0) std::snprintf(lat_s, sizeof(lat_s), "%.4f", ver - inj);
    std::printf("%-4.0f %-14s %10.4f %12s %12s %10s %9s %7.0f %9.0f %7.0f\n",
                num_of(sp, "event_index", 0.0), text_of(sp, "kind").c_str(),
                inj, imp_s, rec_s, ver_s, lat_s,
                num_of(sp, "dirty_destinations", 0.0),
                num_of(sp, "states_explored", 0.0),
                num_of(sp, "cache_hits", 0.0));
  }
  if (const obs::Json* classes = chaos.find("recovery_by_class")) {
    if (!classes->members().empty()) {
      std::printf("=== recovery latency by failure class ===\n");
      std::printf("%-14s %6s %9s %9s %9s\n", "class", "count", "mean(s)",
                  "min(s)", "max(s)");
      for (const auto& [kind, agg] : classes->members()) {
        std::printf("%-14s %6.0f %9.4f %9.4f %9.4f\n", kind.c_str(),
                    num_of(agg, "count", 0.0), num_of(agg, "mean_s", 0.0),
                    num_of(agg, "min_s", 0.0), num_of(agg, "max_s", 0.0));
      }
    }
  }
}

void render_links(const obs::Json& links, std::size_t top_n) {
  if (links.items().empty()) {
    std::printf("links: none recorded\n");
    return;
  }
  std::printf("=== top congested inter-AS links ===\n");
  std::printf("%-12s %10s %10s %10s %10s %8s\n", "link", "bytes", "pkts",
              "ovf_drops", "down_drops", "queue");
  std::size_t n = 0;
  for (const obs::Json& l : links.items()) {
    if (n++ >= top_n) break;
    char name[40];
    std::snprintf(name, sizeof(name), "r%.0f:p%.0f->r%.0f",
                  num_of(l, "router", 0.0), num_of(l, "port", 0.0),
                  num_of(l, "peer_router", 0.0));
    std::printf("%-12s %10.0f %10.0f %10.0f %10.0f %7.1f%%\n", name,
                num_of(l, "bytes_sent", 0.0), num_of(l, "pkts_sent", 0.0),
                num_of(l, "drops_overflow", 0.0),
                num_of(l, "drops_down", 0.0),
                100.0 * num_of(l, "queue_ratio", 0.0));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage(argv[0]);
    return 1;
  }

  std::string text;
  if (opt.path == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    text = ss.str();
  } else {
    std::ifstream in(opt.path);
    if (!in) {
      std::fprintf(stderr, "mifo-trace: cannot open %s\n", opt.path.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }

  const auto parsed = obs::Json::parse(text);
  if (!parsed) {
    std::fprintf(stderr, "mifo-trace: %s: malformed JSON\n",
                 opt.path.c_str());
    return 1;
  }
  const obs::Json& root = *parsed;
  const std::string schema = text_of(root, "schema");
  if (schema != "mifo.run_artifact.v1") {
    std::fprintf(stderr, "mifo-trace: unexpected schema '%s'\n",
                 schema.c_str());
    if (schema.empty()) return 1;
  }

  if (opt.check) return check_artifact(root);

  std::printf("artifact: %s (bench %s)\n", opt.path.c_str(),
              text_of(root, "bench").c_str());
  const obs::Json* tl = root.find("timeline");
  if (tl != nullptr && tl->find("events") != nullptr) {
    std::printf("timeline: %zu events, %.0f overwritten\n",
                tl->find("events")->items().size(),
                num_of(*tl, "overwritten", 0.0));
    render_flows(*tl, opt);
  } else {
    std::printf("timeline: absent (run without tracing)\n");
  }
  if (const obs::Json* chaos = root.find("chaos")) {
    render_spans(*chaos);
  }
  if (const obs::Json* links = root.find("links")) {
    render_links(*links, opt.links);
  }
  return 0;
}
