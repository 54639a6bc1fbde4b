#include "testbed/sharded_emulation.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <type_traits>

#include "common/rng.hpp"
#include "topo/generator.hpp"

namespace mifo::testbed {

namespace {

struct Scenario {
  topo::AsGraph g;
  std::vector<bool> expand;
  std::vector<std::pair<AsId, AsId>> pairs;  ///< (src AS, dst AS) per host pair
};

Scenario make_scenario(const ScaledParams& p) {
  topo::GeneratorParams gp;
  gp.num_ases = p.num_ases;
  gp.num_tier1 = p.num_tier1;
  gp.seed = p.seed;
  Scenario sc{topo::generate_topology(gp), {}, {}};
  sc.expand = scaled_expand_mask(sc.g, p.expand_degree_cap);

  Rng rng(hash64(p.seed ^ 0x5ca1ab1e5ca1ab1eull));
  const auto n = static_cast<std::uint64_t>(sc.g.num_ases());
  for (std::size_t k = 0; k < p.num_host_pairs; ++k) {
    const auto src = static_cast<std::uint32_t>(rng.bounded(n));
    std::uint32_t dst = src;
    while (dst == src) dst = static_cast<std::uint32_t>(rng.bounded(n));
    sc.pairs.emplace_back(AsId(src), AsId(dst));
  }
  return sc;
}

struct FlowOutcome {
  bool done = false;
  SimTime end_time = 0.0;
  std::uint32_t received = 0;  ///< receiver-side in-order progress
};

/// The serial engine keeps a flow's sender and receiver state in one
/// FlowState; the sharded plane keeps each on its own host's shard.
FlowOutcome flow_outcome(const dp::Network& net, FlowId id) {
  const dp::FlowState& f = net.flows()[id.value()];
  return FlowOutcome{f.done, f.end_time, f.expected};
}

FlowOutcome flow_outcome(const dp::ShardedNetwork& net, FlowId id) {
  const dp::FlowState& snd = net.sender_flow(id);
  return FlowOutcome{snd.done, snd.end_time, net.receiver_flow(id).expected};
}

/// Order-independent only across engines, not across scenarios: the fields
/// are mixed in a fixed order, so equal digests <=> identical outcomes.
std::uint64_t digest_outcome(
    const ScaledResult& res, const std::vector<FlowOutcome>& flows) {
  std::uint64_t d = hash64(0x6d69666f);  // "mifo"
  const auto mix = [&d](std::uint64_t v) { d = hash_combine(d, hash64(v)); };
  mix(res.injected_pkts);
  mix(res.delivered_pkts);
  for (const auto& [reason, count] : res.drops) {
    if (reason == "ring_overflow") continue;  // absent from the serial oracle
    mix(count);
  }
  for (const FlowOutcome& f : flows) {
    mix(f.done ? 1 : 0);
    mix(std::bit_cast<std::uint64_t>(f.end_time));
    mix(f.received);
  }
  return d;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Runs `net` in parked segments until every flow reports done (or the cap),
/// so control-plane periodics stop costing events once traffic drains. Both
/// engines use the same segmentation, which keeps their runs comparable.
template <typename NetT, typename DonePred>
void run_segmented(NetT& net, SimTime time_cap, const DonePred& all_done) {
  constexpr SimTime kSegment = 0.25;
  SimTime t = 0.0;
  while (t < time_cap && !all_done()) {
    t = std::min(t + kSegment, time_cap);
    net.run_until(t);
  }
}

template <typename NetT>
std::vector<FlowId> schedule_flows(NetT& net, const ScaledParams& p,
                                   const std::vector<HostAttachment>& hosts) {
  std::vector<FlowId> ids;
  for (std::size_t k = 0; k < p.num_host_pairs; ++k) {
    for (std::size_t f = 0; f < p.flows_per_pair; ++f) {
      dp::FlowParams fp;
      fp.src = hosts[2 * k].host;
      fp.dst = hosts[2 * k + 1].host;
      fp.size = p.flow_size;
      fp.pkt_size = p.pkt_size;
      fp.start =
          static_cast<SimTime>(k * p.flows_per_pair + f) * p.flow_stagger;
      ids.push_back(net.start_flow(fp));
    }
  }
  return ids;
}

std::vector<AsId> all_ases(const topo::AsGraph& g) {
  std::vector<AsId> ases;
  ases.reserve(g.num_ases());
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    ases.push_back(AsId(static_cast<std::uint32_t>(i)));
  }
  return ases;
}

/// The scaled scenario on a built emulation, on either engine: enable MIFO,
/// schedule the flows, run in segments, read the outcome out. `t0` is when
/// the build started.
template <typename NetT>
ScaledResult run_built(BasicEmulation<NetT> em, const topo::AsGraph& g,
                       const ScaledParams& p,
                       std::chrono::steady_clock::time_point t0) {
  if (p.mifo) em.enable_mifo(all_ases(g), p.router_config, p.daemon_interval);
  NetT& net = *em.net;
  const std::vector<FlowId> ids = schedule_flows(net, p, em.hosts);
  ScaledResult res;
  res.wall_build_seconds = seconds_since(t0);

  const auto t1 = std::chrono::steady_clock::now();
  run_segmented(net, p.time_cap, [&] {
    return std::all_of(ids.begin(), ids.end(), [&](FlowId id) {
      return flow_outcome(net, id).done;
    });
  });
  res.wall_run_seconds = seconds_since(t1);

  res.num_routers = net.num_routers();
  res.num_shards = p.num_shards;
  res.flows_total = ids.size();
  res.injected_pkts = net.injected_pkts();
  res.delivered_pkts = net.delivered_pkts();
  res.drops = net.drop_breakdown();
  if constexpr (std::is_same_v<NetT, dp::ShardedNetwork>) {
    res.ring_overflow = res.drops.back().second;
    res.ring_pairs = net.ring_stats();
    for (const dp::RingStats& rs : res.ring_pairs) {
      res.ring_pushed += rs.pushed;
      res.ring_peak = std::max(res.ring_peak, rs.peak);
    }
  }
  std::vector<FlowOutcome> outcomes;
  for (const FlowId id : ids) {
    const FlowOutcome f = flow_outcome(net, id);
    if (f.done) {
      ++res.flows_done;
      res.last_completion = std::max(res.last_completion, f.end_time);
    }
    outcomes.push_back(f);
  }
  res.outcome_digest = digest_outcome(res, outcomes);
  obs::Registry reg;
  net.publish_metrics(reg, "");
  res.metrics = reg.snapshot();
  return res;
}

}  // namespace

std::vector<bool> scaled_expand_mask(const topo::AsGraph& g,
                                     std::size_t degree_cap) {
  std::vector<bool> expand(g.num_ases());
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    const std::size_t deg =
        g.neighbors(AsId(static_cast<std::uint32_t>(i))).size();
    expand[i] = deg >= 2 && deg <= degree_cap;
  }
  return expand;
}

ScaledResult run_scaled(const ScaledParams& p) {
  const auto t0 = std::chrono::steady_clock::now();
  const Scenario sc = make_scenario(p);
  EmulationBuilder builder(sc.g, sc.expand, p.build);
  for (const auto& [src, dst] : sc.pairs) {
    builder.attach_host(src);
    builder.attach_host(dst);
  }
  return p.num_shards == 0
             ? run_built(builder.finalize(), sc.g, p, t0)
             : run_built(builder.finalize(p.num_shards, p.shard), sc.g, p, t0);
}

}  // namespace mifo::testbed
