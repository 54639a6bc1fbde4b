// Demonstrates the paper's core loop problem (Fig. 2(a)) and its fix.
//
// Three peering ASes (1, 2, 3) share a customer AS 0. Every AS's default
// path to AS 0 is its direct link; every AS also has alternative routes via
// its peers. When all default links congest simultaneously and every AS
// deflects clockwise, the data plane loops 1 -> 2 -> 3 -> 1 -> ... even
// though the control plane is loop-free — unless the valley-free Tag-Check
// rule gates each deflection, in which case the second peer hop is refused
// and the packet is dropped at once.

#include <cstdio>
#include <vector>

#include "bgp/route_store.hpp"
#include "dataplane/network.hpp"
#include "obs/trace.hpp"
#include "topo/as_graph.hpp"
#include "topo/relationship.hpp"

using namespace mifo;

namespace {

/// Hand-rolled deflection walk: at every AS the default link is congested
/// and the AS deflects clockwise to the next peer. `enforce_rule` applies
/// the paper's Eq. 3 / Tag-Check gate.
void walk(const topo::AsGraph& g, const std::vector<AsId>& clockwise,
          bool enforce_rule) {
  const AsId dest(0);
  AsId cur = clockwise.front();
  bool tag = true;  // traffic originates inside the first AS
  std::printf("  %u", cur.value());
  for (int hop = 0; hop < 8; ++hop) {
    // Pick the clockwise peer as the (congested-default) deflection target.
    AsId next = AsId::invalid();
    for (std::size_t i = 0; i < clockwise.size(); ++i) {
      if (clockwise[i] == cur) {
        next = clockwise[(i + 1) % clockwise.size()];
        break;
      }
    }
    const topo::Rel rel = *g.rel(cur, next);
    if (enforce_rule && !topo::check_bit(tag, rel)) {
      std::printf("  -> DROP at AS%u (tag=%d, downstream is a %s; Eq.3 "
                  "refuses the transit)\n",
                  cur.value(), tag ? 1 : 0, topo::to_string(rel));
      return;
    }
    std::printf(" -> %u", next.value());
    tag = topo::tag_bit(*g.rel(next, cur));
    cur = next;
  }
  std::printf("  ... LOOP (packet never reaches AS%u)\n", dest.value());
}

/// The same story on the packet plane, observed through the event tracer:
/// a probe flow is deflected over iBGP at its source AS, bounces back
/// (returned-packet detection, Fig. 2(b)), escapes over a peer (Tag-Check
/// passes: tag=1), and is finally refused peer-to-peer transit at the next
/// AS (Tag-Check fails: tag=0) — the drop that severs the would-be loop.
void traced_packet_walk() {
  dp::Network net;
  obs::Tracer tracer(256);
  net.set_tracer(&tracer);

  // AS 100 has two border routers ra/rb (iBGP); AS 4 is a peer of AS 100
  // reached via rb. Extra stub ASes terminate the default egresses we
  // congest (3 and 5) and offer AS 4 a peer-class alternative (6).
  const RouterId ra = net.add_router(AsId(100));
  const RouterId rb = net.add_router(AsId(100));
  const RouterId r4 = net.add_router(AsId(4));
  const RouterId ra_def = net.add_router(AsId(3));
  const RouterId r4_def = net.add_router(AsId(5));
  const RouterId r4_alt = net.add_router(AsId(6));

  const HostId h = net.add_host();
  const PortId host_port = net.connect_host(ra, h);
  const PortId ra_out = net.connect_ebgp(ra, ra_def, topo::Rel::Peer).first;
  const auto [ra_ibgp, rb_ibgp] = net.connect_ibgp(ra, rb);
  const auto [rb_out, r4_in] = net.connect_ebgp(rb, r4, topo::Rel::Peer);
  const PortId r4_out =
      net.connect_ebgp(r4, r4_def, topo::Rel::Peer).first;
  const PortId r4_alt_port =
      net.connect_ebgp(r4, r4_alt, topo::Rel::Peer).first;
  (void)r4_in;

  const dp::Addr dst = 0x80000042;  // beyond AS 4's congested default
  net.router(ra).config().mifo_enabled = true;
  net.router(ra).fib().set_route(dst, ra_out);
  net.router(ra).fib().set_alt(dst, ra_ibgp);
  net.router(rb).config().mifo_enabled = true;
  net.router(rb).fib().set_route(dst, rb_ibgp);  // default next hop IS ra
  net.router(rb).fib().set_alt(dst, rb_out);
  net.router(r4).config().mifo_enabled = true;
  net.router(r4).config().drop_on_congested_no_alt = true;  // faithful l.20
  net.router(r4).fib().set_route(dst, r4_out);
  net.router(r4).fib().set_alt(dst, r4_alt_port);

  // Congest both default egresses with background fillers (flow 999 — the
  // per-flow filter keeps them out of the trace).
  auto congest = [&](RouterId r, PortId port) {
    for (int i = 0; i < 90; ++i) {
      dp::Packet filler;
      filler.src = 0x70000001;
      filler.dst = dst;
      filler.flow = FlowId(999);
      filler.size_bytes = 1000;
      net.transmit_router(r, port, filler);
    }
  };
  congest(ra, ra_out);
  congest(r4, r4_out);

  // The probe: flow 7, host-originated at ra.
  const std::uint64_t probe_flow = 7;
  tracer.set_flow_filter(probe_flow);
  dp::Packet probe;
  probe.src = net.host_addr(h);
  probe.dst = dst;
  probe.flow = FlowId(probe_flow);
  probe.size_bytes = 1000;
  net.router(ra).handle_packet(net, probe, host_port);
  net.run_to_completion(1.0);

  std::printf("\npacket-plane walk of probe flow %llu (event tracer):\n",
              static_cast<unsigned long long>(probe_flow));
  for (const obs::TraceEvent& ev : tracer.events()) {
    std::printf("  %s\n", obs::Tracer::describe(ev).c_str());
  }
  std::printf("\n  ra=r%u rb=r%u (AS100), r%u (AS4): the probe is deflected "
              "over iBGP at ra,\n  returned by rb (its default next hop is "
              "ra), escapes over the AS4 peer link\n  (tag=1 passes Eq. 3), "
              "and AS4 — entered from a peer, tag=0 — refuses\n  "
              "peer-to-peer transit and drops it: no loop.\n",
              ra.value(), rb.value(), r4.value());
}

}  // namespace

int main() {
  // Fig. 2(a): ASes 1,2,3 mutually peer; AS 0 is everyone's customer.
  topo::AsGraph g(4);
  const AsId as0(0), as1(1), as2(2), as3(3);
  g.add_provider_customer(as1, as0);
  g.add_provider_customer(as2, as0);
  g.add_provider_customer(as3, as0);
  g.add_peering(as1, as2);
  g.add_peering(as2, as3);
  g.add_peering(as3, as1);

  const bgp::RouteStore routes(g, as0);
  std::printf("control plane (towards AS0):\n");
  for (const AsId as : {as1, as2, as3}) {
    std::printf("  AS%u: default via AS%u, %zu RIB routes\n", as.value(),
                routes.best(as).next_hop.value(), routes.rib(as).size());
  }

  std::printf("\nall defaults congested, deflecting clockwise, no rule:\n");
  walk(g, {as1, as2, as3}, /*enforce_rule=*/false);

  std::printf("\nsame scenario with the valley-free Tag-Check rule:\n");
  walk(g, {as1, as2, as3}, /*enforce_rule=*/true);

  std::printf("\nThe drop severs the data-plane loop exactly as Section "
              "III-A2 describes.\n");

  traced_packet_walk();
  return 0;
}
