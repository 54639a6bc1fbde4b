#include "verify/lint.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "bgp/route_store.hpp"
#include "verify/deflection_graph.hpp"

namespace mifo::verify {

const char* to_string(LintKind k) {
  switch (k) {
    case LintKind::AltEqualsDefault:
      return "alt-equals-default";
    case LintKind::AltMissingFromRib:
      return "alt-missing-from-rib";
    case LintKind::ExportViolation:
      return "export-violation";
  }
  return "?";
}

std::string LintIssue::to_string() const {
  std::ostringstream os;
  os << "[" << verify::to_string(kind) << "]";
  if (as.valid()) os << " AS" << as.value();
  if (router.valid()) os << " r" << router.value();
  if (dst != dp::kInvalidAddr) os << " dst=" << dst;
  os << ": " << detail;
  return os.str();
}

namespace {

/// Appends the lints of one destination in daemon order: each daemon's RIB
/// knowledge for `dst`, then its routers' FIB entries for `dst`. Nothing is
/// kept across destinations — the owner's route store lives for this call
/// only, so peak memory stays one store regardless of how many
/// destinations a sweep covers.
void lint_destination(
    const dp::Network& net, const topo::AsGraph& g,
    std::span<const std::unique_ptr<core::MifoDaemon>> daemons,
    std::span<const std::pair<dp::Addr, AsId>> prefix_owners, dp::Addr dst,
    std::vector<LintIssue>& issues) {
  const auto own =
      std::find_if(prefix_owners.begin(), prefix_owners.end(),
                   [dst](const auto& po) { return po.first == dst; });
  // Converged routes towards the owner (the RIB ground truth the daemons
  // were fed), built on the first alternative that needs the export check.
  std::optional<bgp::RouteStore> routes;

  for (const auto& daemon : daemons) {
    if (!daemon) continue;
    const core::AsWiring& w = daemon->wiring();

    // Gao–Rexford export-rule check of the daemon's advertised-route
    // knowledge: every claimed alternative must be a neighbor that would
    // genuinely export a route for the prefix.
    const core::PrefixRoutes* known = nullptr;
    for (const core::PrefixRoutes& pr : daemon->prefixes()) {
      if (pr.prefix != dst) continue;
      if (known == nullptr) known = &pr;
      if (own == prefix_owners.end() || own->second == w.as) continue;
      for (const AsId alt : pr.alternatives) {
        if (alt == pr.default_neighbor) {
          issues.push_back(
              {.kind = LintKind::AltEqualsDefault,
               .as = w.as,
               .dst = dst,
               .detail = "RIB alternative duplicates the default neighbor AS" +
                         std::to_string(alt.value())});
          continue;
        }
        if (!routes) routes.emplace(g, own->second);
        if (!routes->rib_from(w.as, alt)) {
          issues.push_back(
              {.kind = LintKind::ExportViolation,
               .as = w.as,
               .dst = dst,
               .detail = "AS" + std::to_string(alt.value()) +
                         " would not export a route for this prefix "
                         "(Gao-Rexford)"});
        }
      }
    }

    // Per-router FIB state against the daemon's RIB knowledge.
    for (const RouterId r : w.routers) {
      const dp::Router& router = net.router(r);
      const auto fe = router.fib().lookup(dst);
      if (!fe || !fe->alt_port.valid()) continue;
      if (fe->alt_port == fe->out_port) {
        issues.push_back({.kind = LintKind::AltEqualsDefault,
                          .as = w.as,
                          .router = r,
                          .dst = dst,
                          .detail = "alt_port equals the default out_port"});
        continue;
      }
      const dp::Port& alt = router.port(fe->alt_port);
      if (alt.kind != dp::PortKind::Ebgp) continue;
      const dp::Port& def = router.port(fe->out_port);
      if (def.kind == dp::PortKind::Ebgp &&
          def.neighbor_as == alt.neighbor_as) {
        issues.push_back(
            {.kind = LintKind::AltEqualsDefault,
             .as = w.as,
             .router = r,
             .dst = dst,
             .detail = "alt_port exits to the default's neighbor AS" +
                       std::to_string(alt.neighbor_as.value())});
        continue;
      }
      const bool in_rib =
          known != nullptr &&
          std::find(known->alternatives.begin(), known->alternatives.end(),
                    alt.neighbor_as) != known->alternatives.end();
      if (!in_rib) {
        issues.push_back({.kind = LintKind::AltMissingFromRib,
                          .as = w.as,
                          .router = r,
                          .dst = dst,
                          .detail = "alt_port exits to AS" +
                                    std::to_string(alt.neighbor_as.value()) +
                                    ", which is not a RIB alternative for "
                                    "this prefix"});
      }
    }
  }
}

}  // namespace

std::vector<LintIssue> lint_deployment(
    const dp::Network& net, const topo::AsGraph& g,
    std::span<const std::unique_ptr<core::MifoDaemon>> daemons,
    std::span<const std::pair<dp::Addr, AsId>> prefix_owners) {
  // Every destination a lint can name: the FIB entries, plus RIB knowledge
  // for prefixes no FIB holds any more. Daemons mostly know the FIB's
  // prefixes, so only the rest are appended before the final sort.
  std::vector<dp::Addr> dests = fib_destinations(net.routers());
  const std::size_t in_fibs = dests.size();
  for (const auto& daemon : daemons) {
    if (!daemon) continue;
    for (const core::PrefixRoutes& pr : daemon->prefixes()) {
      if (!std::binary_search(dests.begin(), dests.begin() + in_fibs,
                              pr.prefix)) {
        dests.push_back(pr.prefix);
      }
    }
  }
  std::sort(dests.begin(), dests.end());
  dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
  return lint_deployment(net, g, daemons, prefix_owners, dests);
}

std::vector<LintIssue> lint_deployment(
    const dp::Network& net, const topo::AsGraph& g,
    std::span<const std::unique_ptr<core::MifoDaemon>> daemons,
    std::span<const std::pair<dp::Addr, AsId>> prefix_owners,
    std::span<const dp::Addr> dests) {
  std::vector<LintIssue> issues;
  for (const dp::Addr dst : dests) {
    lint_destination(net, g, daemons, prefix_owners, dst, issues);
  }
  return issues;
}

}  // namespace mifo::verify
