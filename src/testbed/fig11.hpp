// The paper's testbed experiment (Section V, Figs. 11 and 12).
//
// Topology (Fig. 11): 6 ASes, 11 routers, 4 end hosts.
//   AS1 --(customer of)--> AS3, AS2 --(customer of)--> AS3
//   AS3 <--peer--> AS4, AS3 <--peer--> AS6
//   AS4 --(provider of)--> AS5, AS6 --(provider of)--> AS5
// Default BGP paths: (S1,D1): 1->3->4->5 and (S2,D2): 2->3->4->5 — both
// squeeze through the AS3->AS4 link. MIFO's border router Rd (AS3 towards
// AS4) relieves the bottleneck by deflecting to the alternative 3->6->5 via
// its iBGP peer Ra (AS3 towards AS6), using IP-in-IP between Rd and Ra.
//
// AS3, AS4 and AS6 are expanded to border-router level (4+2+2 routers);
// AS1, AS2 and AS5 collapse to one router each — 11 routers, as built with
// 11 machines in the paper.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "obs/registry.hpp"
#include "obs/timeseries.hpp"
#include "testbed/emulation.hpp"
#include "topo/as_graph.hpp"

namespace mifo::testbed {

/// AS ids in the Fig. 11 graph (0-indexed: paper AS k = id k-1).
struct Fig11Ids {
  AsId as1{0}, as2{1}, as3{2}, as4{3}, as5{4}, as6{5};
};

/// The Fig. 11 AS graph.
[[nodiscard]] topo::AsGraph fig11_graph();

struct Fig12Params {
  /// Paper: 30 flows per source pair, 100 MB each, 1 KB packets. Defaults
  /// are scaled to 10 MB for sub-minute runs; override for paper scale.
  std::size_t flows_per_pair = 30;
  Bytes flow_size = 10 * kMegaByte;
  std::uint32_t pkt_size = 1000;
  bool mifo = false;
  /// Throughput-series bucket width for Fig. 12(a).
  SimTime bucket = 0.1;
  /// Hard cap on emulated time.
  SimTime time_cap = 600.0;
  /// Per-link utilization sampling period for the run artifact's congestion
  /// traces (dp::Network::enable_link_sampling); 0 disables (the default).
  SimTime link_sample_interval = 0.0;
};

struct Fig12Result {
  std::vector<double> fct;            ///< per-flow completion times (s)
  std::vector<double> throughput_gbps;///< aggregate delivered Gbps per bucket
  SimTime bucket = 0.1;
  SimTime total_time = 0.0;           ///< time to complete all flows
  double aggregate_gbps = 0.0;        ///< delivered bits / total time
  dp::RouterCounters counters;        ///< summed router counters
  /// Per-link congestion trace (empty unless link_sample_interval > 0).
  obs::LinkSeries link_samples;
  /// The network's metrics (publish_metrics, unlabelled), taken once after
  /// the run.
  obs::Snapshot metrics;
};

/// Runs the Fig. 12 experiment (both source pairs send their flows
/// back-to-back, starting simultaneously) and reports the paper's two
/// series.
[[nodiscard]] Fig12Result run_fig12(const Fig12Params& params);

}  // namespace mifo::testbed
