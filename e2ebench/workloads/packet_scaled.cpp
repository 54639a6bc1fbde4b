// packet_scaled — the testbed::run_scaled scenario: a generated topology
// expanded to border-router level, staggered 1 MB flows between host pairs,
// MIFO daemons on every AS at the 10 ms tick. The serial engine runs first,
// then the sharded plane at 4 workers.
//
// The topology and host pairs are run_scaled's reference ones (seed 42);
// the variant permutes which pair starts in which slot of the flow
// schedule. run_scaled takes no such input, so the scenario is rebuilt
// here from public API: generate_topology, scaled_expand_mask, run_scaled's
// host-pair derivation, flow schedule, segmented run and outcome digest.
// Unpermuted it is run_scaled exactly (the `packet_crosscheck` entry point
// compares the two). The traced pass times the build, the event loop
// and each daemon tick; its outcome digest, delivered-packet and flows-done
// counts must match the untraced pass.

#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "daemon_clock.hpp"
#include "testbed/sharded_emulation.hpp"
#include "topo/generator.hpp"

namespace e2e {

namespace {

using namespace mifo;

testbed::ScaledParams scaled_params(const Options& o) {
  testbed::ScaledParams p;
  p.num_ases = o.small ? 150 : 500;
  p.num_host_pairs = o.small ? 12 : 200;
  return p;  // p.seed = 42: the reference topology
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct Topology {
  topo::AsGraph g;
  std::vector<bool> expand;
  std::vector<std::pair<AsId, AsId>> pairs;
};

/// run_scaled's scenario; a non-zero `variant` permutes the host pairs.
Topology make_topology(const testbed::ScaledParams& p, std::uint64_t variant,
                       Spans* spans) {
  Topology t;
  topo::GeneratorParams gp;
  gp.num_ases = p.num_ases;
  gp.num_tier1 = p.num_tier1;
  gp.seed = p.seed;
  t.g = spans != nullptr
            ? spans->leaf("topo.generate_s",
                          [&] { return topo::generate_topology(gp); })
            : topo::generate_topology(gp);
  t.expand = testbed::scaled_expand_mask(t.g, p.expand_degree_cap);
  Rng rng(hash64(p.seed ^ 0x5ca1ab1e5ca1ab1eull));
  const auto n = static_cast<std::uint64_t>(t.g.num_ases());
  for (std::size_t k = 0; k < p.num_host_pairs; ++k) {
    const auto src = static_cast<std::uint32_t>(rng.bounded(n));
    std::uint32_t dst = src;
    while (dst == src) dst = static_cast<std::uint32_t>(rng.bounded(n));
    t.pairs.emplace_back(AsId(src), AsId(dst));
  }
  if (variant != 0) Rng(hash64(variant)).shuffle(t.pairs);
  return t;
}

std::vector<AsId> all_ases(const topo::AsGraph& g) {
  std::vector<AsId> ases;
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    ases.push_back(AsId(static_cast<std::uint32_t>(i)));
  }
  return ases;
}

using Hosts = std::vector<testbed::HostAttachment>;
using Drops = std::vector<std::pair<std::string, std::uint64_t>>;

template <typename NetT>
std::vector<FlowId> schedule_flows(NetT& net, const testbed::ScaledParams& p,
                                   const Hosts& hosts) {
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

/// A wired serial emulation with its flows scheduled.
struct Ready {
  Topology topo;
  testbed::Emulation em;
  std::vector<FlowId> ids;
};

struct FlowOutcome {
  bool done = false;
  SimTime end_time = 0.0;
  std::uint32_t received = 0;
};

/// run_scaled's outcome digest (conservation totals, drop buckets except
/// ring_overflow, then every flow's done / end time / receiver progress).
std::uint64_t digest(std::uint64_t injected, std::uint64_t delivered,
                     const Drops& drops,
                     const std::vector<FlowOutcome>& flows) {
  std::uint64_t d = hash64(0x6d69666f);
  const auto mix = [&d](std::uint64_t v) { d = hash_combine(d, hash64(v)); };
  mix(injected);
  mix(delivered);
  for (const auto& [reason, count] : drops) {
    if (reason != "ring_overflow") mix(count);
  }
  for (const FlowOutcome& f : flows) {
    mix(f.done ? 1 : 0);
    mix(std::bit_cast<std::uint64_t>(f.end_time));
    mix(f.received);
  }
  return d;
}

/// run_scaled's segmented run: 0.25 s segments until every flow is done.
/// `run` advances the network to a time.
template <typename Done, typename Run>
void run_segmented(SimTime time_cap, const Done& all_done, const Run& run) {
  SimTime t = 0.0;
  while (t < time_cap && !all_done()) {
    t = std::min(t + 0.25, time_cap);
    run(t);
  }
}

struct ArmResult {
  std::uint64_t flows = 0;
  std::uint64_t done = 0;
  std::uint64_t delivered = 0;
  std::uint64_t digest = 0;
  double wall = 0.0;
};

ArmResult serial_arm(const testbed::ScaledParams& p, std::uint64_t variant,
                     bool trace, Record& rec, Spans& spans) {
  DaemonClock clock;
  const auto r = timed_setup(rec, trace ? 1 : kSetupRepeats, [&] {
    auto ready = std::make_unique<Ready>();
    ready->topo = make_topology(p, variant, trace ? &spans : nullptr);
    const Topology& t = ready->topo;
    const auto build = [&] {
      testbed::EmulationBuilder builder(t.g, t.expand, p.build);
      for (const auto& [src, dst] : t.pairs) {
        builder.attach_host(src);
        builder.attach_host(dst);
      }
      ready->em = builder.finalize();
      if (trace) {
        enable_mifo_timed(ready->em, p.router_config, p.daemon_interval,
                          clock);
      } else {
        ready->em.enable_mifo(all_ases(t.g), p.router_config,
                              p.daemon_interval);
      }
      ready->ids = schedule_flows(*ready->em.net, p, ready->em.hosts);
    };
    if (trace) {
      spans.leaf("testbed.build_s", build);
    } else {
      build();
    }
    return ready;
  });

  dp::Network& net = *r->em.net;
  const auto all_done = [&] {
    return std::all_of(r->ids.begin(), r->ids.end(),
                       [&](FlowId id) { return net.flow(id).done; });
  };
  ArmResult res;
  const double t0 = now_s();
  if (trace) {
    run_segmented(p.time_cap, all_done, [&](SimTime t) {
      spans.leaf("dp.run_s", [&] { net.run_until(t); });
    });
  } else {
    run_segmented(p.time_cap, all_done, [&](SimTime t) { net.run_until(t); });
  }
  res.wall = now_s() - t0;

  std::vector<FlowOutcome> outcomes;
  for (const FlowId id : r->ids) {
    const dp::FlowState& f = net.flow(id);
    outcomes.push_back(FlowOutcome{f.done, f.end_time, f.expected});
    res.done += f.done ? 1 : 0;
  }
  res.flows = r->ids.size();
  res.delivered = net.delivered_pkts();
  res.digest = digest(net.injected_pkts(), net.delivered_pkts(),
                      net.drop_breakdown(), outcomes);

  if (trace) {
    const double run_s = rec.layer("dp.run_s");
    rec.layer_set("core.daemon_tick_s", clock.seconds);
    rec.layer_set("core.daemon_ticks", static_cast<double>(clock.ticks));
    rec.layer_set("core.daemon_tick_share", clock.seconds / run_s);
    rec.layer_set("dp.event_loop_self_s", run_s - clock.seconds);
    rec.layer_set("dp.pkts_injected",
                  static_cast<double>(net.injected_pkts()));
    rec.layer_set("dp.pkts_delivered",
                  static_cast<double>(net.delivered_pkts()));
    for (const auto& [bucket, n] : net.drop_breakdown()) {
      rec.layer_set("dp.drops." + bucket, static_cast<double>(n));
    }
  }
  return res;
}

struct ShardedResult {
  ArmResult arm;
  std::uint64_t ring_pushed = 0;
  std::size_t ring_peak = 0;
  std::uint64_t ring_overflow = 0;
};

ShardedResult sharded_arm(const testbed::ScaledParams& p,
                          std::uint64_t variant, std::size_t workers) {
  const Topology t = make_topology(p, variant, nullptr);
  testbed::ShardedEmulationBuilder builder(t.g, t.expand, p.build);
  for (const auto& [src, dst] : t.pairs) {
    builder.attach_host(src);
    builder.attach_host(dst);
  }
  testbed::ShardedEmulation em = builder.finalize(workers, p.shard);
  em.enable_mifo(all_ases(t.g), p.router_config, p.daemon_interval);
  dp::ShardedNetwork& net = *em.net;
  const std::vector<FlowId> ids = schedule_flows(net, p, em.hosts);

  ShardedResult res;
  const double t0 = now_s();
  run_segmented(
      p.time_cap,
      [&] {
        return std::all_of(ids.begin(), ids.end(), [&](FlowId id) {
          return net.sender_flow(id).done;
        });
      },
      [&](SimTime tt) { net.run_until(tt); });
  res.arm.wall = now_s() - t0;

  std::vector<FlowOutcome> outcomes;
  for (const FlowId id : ids) {
    const dp::FlowState& snd = net.sender_flow(id);
    outcomes.push_back(
        FlowOutcome{snd.done, snd.end_time, net.receiver_flow(id).expected});
    res.arm.done += snd.done ? 1 : 0;
  }
  res.arm.flows = ids.size();
  res.arm.delivered = net.delivered_pkts();
  const auto drops = net.drop_breakdown();
  res.arm.digest =
      digest(net.injected_pkts(), net.delivered_pkts(), drops, outcomes);
  res.ring_overflow = drops.back().second;
  for (const dp::RingStats& rs : net.ring_stats()) {
    res.ring_pushed += rs.pushed;
    res.ring_peak = std::max(res.ring_peak, rs.peak);
  }
  return res;
}

}  // namespace

void packet_scaled(const Options& o, Record& rec, Spans& spans) {
  const testbed::ScaledParams p = scaled_params(o);
  const ArmResult serial = serial_arm(p, o.variant, o.trace, rec, spans);
  rec.metric("wall_s", serial.wall);
  rec.output("digest", hex(serial.digest));
  rec.output("flows_done", serial.done);
  rec.output("delivered", serial.delivered);

  const auto run_sharded = [&] { return sharded_arm(p, o.variant, 4); };
  const ShardedResult sharded =
      o.trace ? spans.leaf("shard.arm_s", run_sharded) : run_sharded();
  rec.metric("wall_4w_s", sharded.arm.wall);
  rec.output("flows_done_4w", sharded.arm.done);
  rec.output("delivered_4w", sharded.arm.delivered);
  rec.count("attempted", serial.flows + sharded.arm.flows);
  rec.count("failed", serial.flows - serial.done + sharded.arm.flows -
                          sharded.arm.done);

  if (o.trace) {
    rec.layer_set("shard.run_s", sharded.arm.wall);
    rec.layer_set("shard.speedup_4w", serial.wall / sharded.arm.wall);
    rec.layer_set("shard.ring_pushed",
                  static_cast<double>(sharded.ring_pushed));
    rec.layer_set("shard.ring_peak", static_cast<double>(sharded.ring_peak));
    rec.layer_set("shard.ring_overflow",
                  static_cast<double>(sharded.ring_overflow));
  } else {
    // Known divergence, recorded but not gated: past the 40-pair scenario
    // the sharded digest differs from the serial one on timestamp ties
    // (DESIGN.md section 6); on the reference schedule delivered packets and
    // flows done still agree, on some permuted ones a few packets move.
    rec.recorded("digest_4w", hex(sharded.arm.digest));
    rec.recorded("digest_matches_serial", sharded.arm.digest == serial.digest);
    rec.recorded("delivered_matches_serial",
                 sharded.arm.delivered == serial.delivered);
  }
}

void packet_crosscheck(const Options& o, Record& rec, Spans& spans) {
  testbed::ScaledParams p = scaled_params(o);
  p.seed += o.variant;  // another run_scaled scenario, unpermuted
  const ArmResult rebuilt = serial_arm(p, 0, false, rec, spans);
  const testbed::ScaledResult ref = testbed::run_scaled(p);
  rec.output("rebuilt_digest", hex(rebuilt.digest));
  rec.output("run_scaled_digest", hex(ref.outcome_digest));
  rec.count("attempted", 1);
  rec.count("failed", rebuilt.digest == ref.outcome_digest ? 0 : 1);
}

}  // namespace e2e
