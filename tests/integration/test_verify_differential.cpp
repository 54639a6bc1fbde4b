// Differential tests: the static verifier's verdict must match what the
// packet emulator actually does. For every Fig. 2 scenario in
// test_loop_scenarios.cpp the verifier proves loop-freedom and the dynamic
// run confirms no TTL exhaustion; for mutated FIBs the verifier reports a
// concrete router-level cycle and a traced probe packet walks exactly that
// cycle until its TTL dies.

#include <gtest/gtest.h>

#include <set>

#include "obs/trace.hpp"
#include "testbed/emulation.hpp"
#include "verify/deflection_graph.hpp"

namespace mifo {
namespace {

using dp::Packet;

std::set<std::uint32_t> cycle_routers(const verify::Cycle& cycle) {
  std::set<std::uint32_t> out;
  for (const verify::Hop& h : cycle.hops) out.insert(h.from.value());
  return out;
}

/// Routers a probe flow visited while being forwarded or deflected.
std::set<std::uint32_t> traced_routers(const obs::Tracer& tracer,
                                       std::uint64_t flow) {
  std::set<std::uint32_t> out;
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (ev.flow != flow) continue;
    if (ev.kind == obs::TraceKind::Deflect ||
        ev.kind == obs::TraceKind::Forward) {
      out.insert(ev.router);
    }
  }
  return out;
}

struct RingScenario {
  testbed::Emulation em;
  dp::Addr dst = dp::kInvalidAddr;
  dp::Addr src = dp::kInvalidAddr;
  RouterId r1;
  std::set<std::uint32_t> ring_routers;
};

RingScenario make_ring(bool enforce_tag_check) {
  topo::AsGraph g(4);
  g.add_provider_customer(AsId(1), AsId(0));
  g.add_provider_customer(AsId(2), AsId(0));
  g.add_provider_customer(AsId(3), AsId(0));
  g.add_peering(AsId(1), AsId(2));
  g.add_peering(AsId(2), AsId(3));
  g.add_peering(AsId(3), AsId(1));

  testbed::EmulationBuilder builder(g, std::vector<bool>(4, false));
  const HostId dst_host = builder.attach_host(AsId(0));
  const HostId src_host = builder.attach_host(AsId(1));
  RingScenario sc;
  sc.em = builder.finalize();
  sc.dst = sc.em.attachment(dst_host).addr;
  sc.src = sc.em.attachment(src_host).addr;
  dp::Network& net = *sc.em.net;

  const AsId ring[] = {AsId(1), AsId(2), AsId(3)};
  for (int i = 0; i < 3; ++i) {
    const AsId as = ring[i];
    const AsId next = ring[(i + 1) % 3];
    const RouterId r = sc.em.wirings[as.value()].routers.front();
    net.router(r).config().mifo_enabled = true;
    net.router(r).config().enforce_tag_check = enforce_tag_check;
    const auto* eg = sc.em.wirings[as.value()].egress_to(next);
    EXPECT_NE(eg, nullptr);
    net.router(r).fib().set_alt(sc.dst, eg->port);
  }
  sc.r1 = sc.em.wirings[1].routers.front();
  for (const std::uint32_t as : {1u, 2u, 3u}) {
    sc.ring_routers.insert(
        sc.em.wirings[as].routers.front().value());
  }
  return sc;
}

void congest_ring_defaults(RingScenario& sc) {
  dp::Network& net = *sc.em.net;
  for (const std::uint32_t as : {1u, 2u, 3u}) {
    const RouterId r = sc.em.wirings[as].routers.front();
    const auto* eg = sc.em.wirings[as].egress_to(AsId(0));
    ASSERT_NE(eg, nullptr);
    for (int i = 0; i < 70; ++i) {
      Packet filler;
      filler.dst = sc.dst;
      filler.flow = FlowId(1000 + as);
      filler.size_bytes = 1000;
      net.transmit_router(r, eg->port, filler);
    }
  }
}

Packet make_probe(dp::Addr src, dp::Addr dst) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.flow = FlowId(1);
  p.size_bytes = 1000;
  p.mifo_tag = true;  // host-origin tag
  return p;
}

// Faithful Fig. 2(a): the verifier proves the installed state loop-free and
// the dynamic run agrees (the deflected packet dies at a Tag-Check, it
// never loops).
TEST(VerifyDifferential, Fig2aVerdictMatchesDynamics) {
  RingScenario sc = make_ring(/*enforce_tag_check=*/true);
  const auto check = verify::check_loop_freedom(*sc.em.net);
  ASSERT_TRUE(check.loop_free);

  congest_ring_defaults(sc);
  dp::Network& net = *sc.em.net;
  net.router(sc.r1).handle_packet(net, make_probe(sc.src, sc.dst),
                                  PortId::invalid());
  net.run_until(1.0);
  EXPECT_EQ(net.total_counters().ttl_drops, 0u);
}

// Faithful Fig. 2(b): verifier says loop-free; dynamically the returned
// packet is pushed out the alternative and delivered.
TEST(VerifyDifferential, Fig2bVerdictMatchesDynamics) {
  topo::AsGraph g(4);
  const AsId x(0), y(1), z(2), d(3);
  g.add_peering(x, y);
  g.add_peering(x, z);
  g.add_provider_customer(y, d);
  g.add_provider_customer(z, d);

  std::vector<bool> expand(4, false);
  expand[x.value()] = true;
  testbed::EmulationBuilder builder(g, expand);
  const HostId src = builder.attach_host(x);
  const HostId dst = builder.attach_host(d);
  auto em = builder.finalize();
  dp::Network& net = *em.net;
  const RouterId r1 = em.wirings[x.value()].egress_to(y)->router;
  const RouterId r2 = em.wirings[x.value()].egress_to(z)->router;
  for (const RouterId r : em.wirings[x.value()].routers) {
    net.router(r).config().mifo_enabled = true;
  }
  const dp::Addr dst_addr = em.attachment(dst).addr;
  const auto& wx = em.wirings[x.value()];
  net.router(r1).fib().set_alt(dst_addr, wx.intra_port(r1, r2));
  net.router(r2).fib().set_alt(dst_addr, wx.egress_to(z)->port);

  const auto check = verify::check_loop_freedom(net);
  ASSERT_TRUE(check.loop_free);

  const PortId r1_egress = wx.egress_to(y)->port;
  for (int i = 0; i < 70; ++i) {
    Packet filler;
    filler.dst = dst_addr;
    filler.flow = FlowId(99);
    filler.size_bytes = 1000;
    net.transmit_router(r1, r1_egress, filler);
  }
  net.router(r1).handle_packet(net, make_probe(em.attachment(src).addr,
                                               dst_addr),
                               PortId::invalid());
  net.run_until(1.0);
  EXPECT_EQ(net.total_counters().ttl_drops, 0u);
  EXPECT_GE(net.router(r2).counters().returned_detected, 1u);
}

// Mutated ring: with the Tag-Check disabled on the peering triangle the
// verifier reports a concrete three-router cycle — and a traced probe
// packet deflects around exactly those routers until TTL exhaustion.
TEST(VerifyDifferential, MutatedRingCycleIsReproducedByEmulator) {
  RingScenario sc = make_ring(/*enforce_tag_check=*/false);
  dp::Network& net = *sc.em.net;

  const auto check = verify::check_loop_freedom(net);
  ASSERT_FALSE(check.loop_free);
  ASSERT_EQ(check.cycles.size(), 1u);
  EXPECT_EQ(check.cycles.front().dst, sc.dst);
  const std::set<std::uint32_t> predicted = cycle_routers(check.cycles.front());
  EXPECT_EQ(predicted, sc.ring_routers);

  obs::Tracer tracer;
  tracer.set_flow_filter(1);
  net.set_tracer(&tracer);
  congest_ring_defaults(sc);
  net.router(sc.r1).handle_packet(net, make_probe(sc.src, sc.dst),
                                  PortId::invalid());
  net.run_until(1.0);
  net.set_tracer(nullptr);

  // The emulator exhibits the loop the verifier predicted: the probe dies
  // of TTL exhaustion, and the routers it bounced between are exactly the
  // counterexample's.
  EXPECT_EQ(net.total_counters().ttl_drops, 1u);
  EXPECT_EQ(traced_routers(tracer, 1), predicted);
  bool saw_ttl_drop = false;
  for (const obs::TraceEvent& ev : tracer.events()) {
    saw_ttl_drop |= ev.kind == obs::TraceKind::DropTtl;
  }
  EXPECT_TRUE(saw_ttl_drop);
}

// A RIB-unbacked alternative loops even with the Tag-Check fully enforced
// (deflect down to a stub customer whose default climbs straight back).
// The verifier predicts the two-router cycle; the emulator reproduces it.
TEST(VerifyDifferential, RibUnbackedAltCycleIsReproducedByEmulator) {
  topo::AsGraph g(3);
  g.add_provider_customer(AsId(1), AsId(0));
  g.add_provider_customer(AsId(1), AsId(2));
  testbed::EmulationBuilder builder(g, std::vector<bool>(3, false));
  const HostId dst_host = builder.attach_host(AsId(0));
  const HostId src_host = builder.attach_host(AsId(1));
  auto em = builder.finalize();
  dp::Network& net = *em.net;
  const dp::Addr dst = em.attachment(dst_host).addr;

  const RouterId r1 = em.wirings[1].routers.front();
  const RouterId r2 = em.wirings[2].routers.front();
  net.router(r1).config().mifo_enabled = true;  // Tag-Check stays ON
  const auto* eg = em.wirings[1].egress_to(AsId(2));
  ASSERT_NE(eg, nullptr);
  net.router(r1).fib().set_alt(dst, eg->port);

  const auto check = verify::check_loop_freedom(net);
  ASSERT_FALSE(check.loop_free);
  const std::set<std::uint32_t> predicted = cycle_routers(check.cycles.front());
  EXPECT_EQ(predicted, (std::set<std::uint32_t>{r1.value(), r2.value()}));

  obs::Tracer tracer;
  tracer.set_flow_filter(1);
  net.set_tracer(&tracer);
  // Congest r1's default egress towards AS 0 so the probe deflects.
  const auto* def = em.wirings[1].egress_to(AsId(0));
  ASSERT_NE(def, nullptr);
  for (int i = 0; i < 70; ++i) {
    Packet filler;
    filler.dst = dst;
    filler.flow = FlowId(77);
    filler.size_bytes = 1000;
    net.transmit_router(r1, def->port, filler);
  }
  net.router(r1).handle_packet(net,
                               make_probe(em.attachment(src_host).addr, dst),
                               PortId::invalid());
  net.run_until(1.0);
  net.set_tracer(nullptr);

  EXPECT_EQ(net.total_counters().ttl_drops, 1u);
  EXPECT_EQ(traced_routers(tracer, 1), predicted);
}

}  // namespace
}  // namespace mifo
