// Static FIB/RIB consistency lints (the verifier's second half).
//
// The deflection-graph check proves loop-freedom; these lints catch the
// installed-state corruption that *erodes* MIFO's usefulness without
// necessarily looping: alternatives the RIB never advertised, alternatives
// that duplicate the default, and daemon RIB knowledge that violates the
// Gao–Rexford export rule.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/daemon.hpp"
#include "dataplane/network.hpp"
#include "topo/as_graph.hpp"

namespace mifo::verify {

enum class LintKind : std::uint8_t {
  /// A FIB entry's alt_port equals its out_port (or exits to the same
  /// neighbor AS as the default) — a "spare" path with zero diversity.
  AltEqualsDefault,
  /// An eBGP alt_port exits towards an AS that is not among the RIB
  /// alternatives the daemon knows for that prefix.
  AltMissingFromRib,
  /// A daemon RIB alternative the Gao–Rexford export rule says the
  /// neighbor would never have advertised.
  ExportViolation,
};

[[nodiscard]] const char* to_string(LintKind k);

struct LintIssue {
  LintKind kind = LintKind::AltEqualsDefault;
  AsId as = AsId::invalid();
  RouterId router = RouterId::invalid();
  dp::Addr dst = dp::kInvalidAddr;
  std::string detail;
  [[nodiscard]] std::string to_string() const;
};

/// Deployment lints over live router FIBs and daemon RIB state.
/// `prefix_owners` maps each destination prefix to the AS originating it
/// (the testbed's host attachments); prefixes absent from the map only get
/// the RIB-independent checks. Sweeps every destination a FIB or a daemon
/// knows, ascending: the output is destination-ascending, in daemon order
/// within a destination.
[[nodiscard]] std::vector<LintIssue> lint_deployment(
    const dp::Network& net, const topo::AsGraph& g,
    std::span<const std::unique_ptr<core::MifoDaemon>> daemons,
    std::span<const std::pair<dp::Addr, AsId>> prefix_owners);

/// The same lints for the destinations in `dests` only (sorted ascending,
/// no duplicates), at a cost per destination that does not depend on how
/// many other destinations exist. Every deployment lint names the
/// destination it concerns, so issues partition exactly by destination: the
/// full run equals the one-destination calls concatenated in destination
/// order, which is how the incremental verifier merges its per-destination
/// re-lints (element-identical; see the differential property tests).
[[nodiscard]] std::vector<LintIssue> lint_deployment(
    const dp::Network& net, const topo::AsGraph& g,
    std::span<const std::unique_ptr<core::MifoDaemon>> daemons,
    std::span<const std::pair<dp::Addr, AsId>> prefix_owners,
    std::span<const dp::Addr> dests);

}  // namespace mifo::verify
