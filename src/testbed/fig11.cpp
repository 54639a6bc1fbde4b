#include "testbed/fig11.hpp"

#include "common/contracts.hpp"

namespace mifo::testbed {

topo::AsGraph fig11_graph() {
  const Fig11Ids ids;
  topo::AsGraph g(6);
  // AS3 provides transit to AS1 and AS2.
  g.add_provider_customer(ids.as3, ids.as1);
  g.add_provider_customer(ids.as3, ids.as2);
  // AS3 peers with both upstreams of AS5.
  g.add_peering(ids.as3, ids.as4);
  g.add_peering(ids.as3, ids.as6);
  // AS4 and AS6 provide transit to AS5.
  g.add_provider_customer(ids.as4, ids.as5);
  g.add_provider_customer(ids.as6, ids.as5);
  g.info(ids.as3).tier = 2;
  g.info(ids.as4).tier = 2;
  g.info(ids.as6).tier = 2;
  return g;
}

Fig12Result run_fig12(const Fig12Params& params) {
  const Fig11Ids ids;
  const topo::AsGraph g = fig11_graph();

  // Expand the transit ASes to border-router granularity: AS3 gets four
  // border routers (including Rd towards AS4 and Ra towards AS6), AS4 and
  // AS6 two each; the stub ASes collapse — 11 routers total.
  std::vector<bool> expand(g.num_ases(), false);
  expand[ids.as3.value()] = true;
  expand[ids.as4.value()] = true;
  expand[ids.as6.value()] = true;

  EmulationBuilder builder(g, expand);
  const HostId s1 = builder.attach_host(ids.as1);
  const HostId s2 = builder.attach_host(ids.as2);
  const HostId d1 = builder.attach_host(ids.as5);
  const HostId d2 = builder.attach_host(ids.as5);
  Emulation em = builder.finalize();
  dp::Network& net = *em.net;

  if (params.mifo) {
    constexpr SimTime kDaemonInterval = 0.005;
    em.enable_mifo({ids.as3}, dp::RouterConfig{}, kDaemonInterval);
  }
  net.enable_delivery_trace(params.bucket);
  if (params.link_sample_interval > 0.0) {
    net.enable_link_sampling(params.link_sample_interval);
  }

  // Both pairs stream their flows back-to-back ("one after another"),
  // starting at t=0 simultaneously.
  struct PairState {
    HostId src;
    HostId dst;
    std::size_t remaining;
  };
  std::vector<PairState> pairs{{s1, d1, params.flows_per_pair},
                               {s2, d2, params.flows_per_pair}};

  auto launch = [&](PairState& p) {
    MIFO_EXPECTS(p.remaining > 0);
    --p.remaining;
    dp::FlowParams fp;
    fp.src = p.src;
    fp.dst = p.dst;
    fp.size = params.flow_size;
    fp.pkt_size = params.pkt_size;
    fp.start = net.now();
    net.start_flow(fp);
  };

  net.set_flow_complete_callback([&pairs, &launch](dp::Network& n,
                                                   dp::FlowState& f) {
    (void)n;
    for (auto& p : pairs) {
      if (p.src == f.params.src && p.dst == f.params.dst) {
        if (p.remaining > 0) launch(p);
        return;
      }
    }
  });

  launch(pairs[0]);
  launch(pairs[1]);
  net.run_to_completion(params.time_cap);

  Fig12Result res;
  res.bucket = params.bucket;
  Bytes delivered = 0;
  SimTime last_finish = 0.0;
  for (const auto& f : net.flows()) {
    MIFO_ASSERT(f.done);  // the cap must be generous enough
    res.fct.push_back(f.completion_time());
    delivered += f.params.size;
    last_finish = std::max(last_finish, f.end_time);
  }
  for (const Bytes b : net.delivery_buckets()) {
    res.throughput_gbps.push_back(to_megabits(b) / params.bucket / 1000.0);
  }
  res.total_time = last_finish;
  res.aggregate_gbps =
      last_finish > 0 ? to_megabits(delivered) / last_finish / 1000.0 : 0.0;
  res.counters = net.total_counters();
  res.link_samples = net.link_samples();
  // Periodic events (sampler, daemon ticks) self-reschedule all the way to
  // the time cap; every sample row past workload completion is a zero.
  const SimTime cutoff = last_finish + params.bucket;
  std::erase_if(res.link_samples, [cutoff](const obs::LinkSample& s) {
    return s.t > cutoff;
  });
  obs::Registry reg;
  net.publish_metrics(reg, "");
  res.metrics = reg.snapshot();
  return res;
}

}  // namespace mifo::testbed
