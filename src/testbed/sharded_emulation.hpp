// The scaled Fig. 12-style scenario the multi-worker benchmarks and the
// sharded-vs-serial differential gate run, on either packet engine: the
// serial dp::Network oracle or the sharded dp::ShardedNetwork (DESIGN.md
// §6), both built by EmulationBuilder and driven by one run_scaled body.
//
// The paper's testbed is 15 machines; the scaled scenario generates an
// Internet-like topology (topo::generate_topology) and expands transit ASes
// to border-router level so the packet plane holds 1000+ routers — the scale
// where a single event loop stops being enough and per-core forwarding
// workers start paying off.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "dataplane/shard.hpp"
#include "obs/registry.hpp"
#include "testbed/emulation.hpp"
#include "topo/as_graph.hpp"

namespace mifo::testbed {

/// EmulationBuilder under its former sharded-only name; `finalize(k)` is
/// the sharded build. Kept for the benchmark sources that still name it.
using ShardedEmulationBuilder = EmulationBuilder;

struct ScaledParams {
  // Topology: generated Internet-like graph; transit ASes whose degree is in
  // [2, expand_degree_cap] expand to one border router per adjacency
  // (higher-degree cores stay collapsed — a tier-1's full iBGP mesh would
  // dwarf the rest of the network).
  std::size_t num_ases = 500;
  std::size_t num_tier1 = 10;
  std::size_t expand_degree_cap = 16;
  std::uint64_t seed = 42;

  // Traffic: host pairs between distinct ASes, flows staggered so no two
  // flows share a start timestamp (keeps serial-vs-sharded runs comparable;
  // see DESIGN.md §6 on timestamp ties).
  std::size_t num_host_pairs = 40;
  std::size_t flows_per_pair = 2;
  Bytes flow_size = 1 * kMegaByte;
  std::uint32_t pkt_size = 1000;
  SimTime flow_stagger = 2e-3;
  SimTime time_cap = 120.0;

  // MIFO control plane. The tick interval is deliberately off any round
  // number so daemon events never share a timestamp with packet events
  // (whose times are sums of link delays and tx times).
  bool mifo = true;
  dp::RouterConfig router_config{};
  SimTime daemon_interval = 0.0100003;

  /// WAN-realistic inter-AS propagation delay (0.5 ms): it is also the
  /// conservative-window width, i.e. how much work each epoch amortizes the
  /// two barriers over.
  BuildParams build{.ebgp_delay = 500e-6};

  /// 0 = serial dp::Network oracle (`finalize()`); >= 1 = sharded plane
  /// with that many forwarding workers.
  std::size_t num_shards = 0;
  dp::ShardConfig shard{};
};

struct ScaledResult {
  std::size_t num_routers = 0;
  std::size_t num_shards = 0;  ///< 0 = serial oracle engine
  std::size_t flows_total = 0;
  std::size_t flows_done = 0;
  std::uint64_t injected_pkts = 0;
  std::uint64_t delivered_pkts = 0;
  std::uint64_t ring_overflow = 0;  ///< always 0 for the serial engine
  std::uint64_t ring_pushed = 0;    ///< total cross-shard handoffs
  std::size_t ring_peak = 0;        ///< high-water occupancy over all rings
  /// Per-directed-pair ring stats (empty for the serial engine): which
  /// shard pairs carry the handoff traffic and where overflow attributes.
  std::vector<dp::RingStats> ring_pairs;
  std::vector<std::pair<std::string, std::uint64_t>> drops;
  SimTime last_completion = 0.0;  ///< sim time of the latest flow finish
  double wall_build_seconds = 0.0;
  double wall_run_seconds = 0.0;
  /// Order-independent digest over conservation totals, the serial drop
  /// buckets and every flow's (done, end_time, receiver progress) — equal
  /// digests mean the engines produced identical outcomes.
  std::uint64_t outcome_digest = 0;
  /// The network's metrics (publish_metrics, unlabelled), taken once after
  /// the run: dp.events over dp.port_pkts_sent is events per transmission.
  obs::Snapshot metrics;
};

/// The scaled scenario's expansion rule: transit ASes with degree in
/// [2, degree_cap] become one border router per adjacency; stubs and
/// very-high-degree cores collapse to a single router.
[[nodiscard]] std::vector<bool> scaled_expand_mask(const topo::AsGraph& g,
                                                   std::size_t degree_cap);

[[nodiscard]] ScaledResult run_scaled(const ScaledParams& params);

}  // namespace mifo::testbed
