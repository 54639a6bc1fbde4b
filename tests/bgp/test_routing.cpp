#include "bgp/routing.hpp"

#include <gtest/gtest.h>

#include "oracle/route_reference.hpp"
#include "topo/relationship.hpp"

namespace mifo::bgp {
namespace {

using topo::AsGraph;
using topo::Rel;

TEST(Route, DecisionProcessOrder) {
  const Route customer{RouteClass::Customer, 5, AsId(9)};
  const Route peer{RouteClass::Peer, 1, AsId(1)};
  const Route provider{RouteClass::Provider, 1, AsId(1)};
  EXPECT_TRUE(customer.better_than(peer));     // class beats length
  EXPECT_TRUE(peer.better_than(provider));
  const Route shorter{RouteClass::Peer, 2, AsId(5)};
  const Route longer{RouteClass::Peer, 3, AsId(1)};
  EXPECT_TRUE(shorter.better_than(longer));    // length within class
  const Route low_id{RouteClass::Peer, 2, AsId(2)};
  EXPECT_TRUE(low_id.better_than(shorter));    // next-hop id tie-break
  EXPECT_FALSE(Route{}.better_than(peer));
  EXPECT_TRUE(peer.better_than(Route{}));
}

TEST(Route, ExportRules) {
  // To customers: everything.
  for (RouteClass c : {RouteClass::Customer, RouteClass::Peer,
                       RouteClass::Provider, RouteClass::Self}) {
    EXPECT_TRUE(may_export(c, Rel::Customer));
  }
  // To peers/providers: only customer routes and own prefixes.
  for (Rel to : {Rel::Peer, Rel::Provider}) {
    EXPECT_TRUE(may_export(RouteClass::Customer, to));
    EXPECT_TRUE(may_export(RouteClass::Self, to));
    EXPECT_FALSE(may_export(RouteClass::Peer, to));
    EXPECT_FALSE(may_export(RouteClass::Provider, to));
  }
  EXPECT_FALSE(may_export(RouteClass::None, Rel::Customer));
}

// Fig. 2(a): three mutual peers above a shared customer.
AsGraph fig2a() {
  AsGraph g(4);
  g.add_provider_customer(AsId(1), AsId(0));
  g.add_provider_customer(AsId(2), AsId(0));
  g.add_provider_customer(AsId(3), AsId(0));
  g.add_peering(AsId(1), AsId(2));
  g.add_peering(AsId(2), AsId(3));
  g.add_peering(AsId(3), AsId(1));
  return g;
}

TEST(ComputeRoutes, Fig2aDefaultsAreDirect) {
  const AsGraph g = fig2a();
  const auto routes = compute_routes(g, AsId(0));
  for (std::uint32_t i = 1; i <= 3; ++i) {
    const Route& r = routes.best(AsId(i));
    EXPECT_EQ(r.cls, RouteClass::Customer);
    EXPECT_EQ(r.path_len, 1);
    EXPECT_EQ(r.next_hop, AsId(0));
  }
  EXPECT_EQ(routes.best(AsId(0)).cls, RouteClass::Self);
}

TEST(ComputeRoutes, Fig2aRibHoldsPeerAlternatives) {
  const AsGraph g = fig2a();
  const auto routes = compute_routes(g, AsId(0));
  // Each peer exports its customer route, so AS1's RIB has 3 entries.
  const auto rib = rib_of(g, routes, AsId(1));
  ASSERT_EQ(rib.size(), 3u);
  EXPECT_EQ(rib[0].cls, RouteClass::Customer);  // best first
  EXPECT_EQ(rib[1].cls, RouteClass::Peer);
  EXPECT_EQ(rib[2].cls, RouteClass::Peer);
}

TEST(ComputeRoutes, ProviderChainReachesEveryone) {
  // 0 provides 1 provides 2; dest = 2. AS0 reaches it through the chain.
  AsGraph g(3);
  g.add_provider_customer(AsId(0), AsId(1));
  g.add_provider_customer(AsId(1), AsId(2));
  const auto routes = compute_routes(g, AsId(2));
  EXPECT_EQ(routes.best(AsId(1)).cls, RouteClass::Customer);
  EXPECT_EQ(routes.best(AsId(0)).cls, RouteClass::Customer);
  EXPECT_EQ(routes.best(AsId(0)).path_len, 2);
  // And dest reaches others through provider routes.
  const auto up = compute_routes(g, AsId(0));
  EXPECT_EQ(up.best(AsId(2)).cls, RouteClass::Provider);
  EXPECT_EQ(up.best(AsId(2)).path_len, 2);
}

TEST(ComputeRoutes, PeerRouteNotTransitedUphill) {
  // 2 -- peer -- 1, 1 provides 0; dest = 2.
  // AS0 learns the peer route from its provider 1 (providers export
  // everything to customers): 0 -> 1 -> 2.
  // But a *provider* of 1 would not: peers' routes don't go uphill.
  AsGraph g(4);
  g.add_peering(AsId(1), AsId(2));
  g.add_provider_customer(AsId(1), AsId(0));
  g.add_provider_customer(AsId(3), AsId(1));  // 3 is 1's provider
  const auto routes = compute_routes(g, AsId(2));
  EXPECT_EQ(routes.best(AsId(0)).cls, RouteClass::Provider);
  EXPECT_EQ(routes.best(AsId(0)).next_hop, AsId(1));
  // AS3 has no route: its only neighbor 1 holds a peer route, which is not
  // exported to providers.
  EXPECT_FALSE(routes.best(AsId(3)).valid());
}

TEST(ComputeRoutes, CustomerPreferredOverShorterPeer) {
  // Dest 3. AS0 has a 1-hop peer route via 3 and a 2-hop customer route via
  // 1 -> 3: customer must win despite being longer.
  AsGraph g(4);
  g.add_peering(AsId(0), AsId(3));
  g.add_provider_customer(AsId(0), AsId(1));
  g.add_provider_customer(AsId(1), AsId(3));
  const auto routes = compute_routes(g, AsId(3));
  EXPECT_EQ(routes.best(AsId(0)).cls, RouteClass::Customer);
  EXPECT_EQ(routes.best(AsId(0)).path_len, 2);
  EXPECT_EQ(routes.best(AsId(0)).next_hop, AsId(1));
}

TEST(ComputeRoutes, TieBreakLowestNextHop) {
  // Two equal-length customer paths to dest 3 via 1 and 2.
  AsGraph g(4);
  g.add_provider_customer(AsId(0), AsId(1));
  g.add_provider_customer(AsId(0), AsId(2));
  g.add_provider_customer(AsId(1), AsId(3));
  g.add_provider_customer(AsId(2), AsId(3));
  const auto routes = compute_routes(g, AsId(3));
  EXPECT_EQ(routes.best(AsId(0)).next_hop, AsId(1));
}

TEST(ComputeRoutes, UnreachableWhenDisconnected) {
  AsGraph g(3);
  g.add_peering(AsId(0), AsId(1));
  const auto routes = compute_routes(g, AsId(2));
  EXPECT_FALSE(routes.best(AsId(0)).valid());
  EXPECT_FALSE(routes.best(AsId(1)).valid());
  EXPECT_EQ(reachable_count(routes), 1u);  // the dest itself
}

TEST(AsPath, FollowsNextHopsToDest) {
  AsGraph g(3);
  g.add_provider_customer(AsId(0), AsId(1));
  g.add_provider_customer(AsId(1), AsId(2));
  const auto routes = compute_routes(g, AsId(2));
  const auto path = as_path(g, routes, AsId(0));
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path.front(), AsId(0));
  EXPECT_EQ(path.back(), AsId(2));
  EXPECT_TRUE(as_path(g, routes, AsId(2)).size() == 1);
}

TEST(AsPath, EmptyWhenUnreachable) {
  AsGraph g(2);
  const auto routes = compute_routes(g, AsId(1));
  EXPECT_TRUE(as_path(g, routes, AsId(0)).empty());
}

TEST(RibRouteFrom, ExportGatekeeping) {
  const AsGraph g = fig2a();
  const auto routes = compute_routes(g, AsId(0));
  // AS1's peer AS2 has a customer route -> exported.
  const auto from_peer = rib_route_from(g, routes, AsId(1), AsId(2));
  ASSERT_TRUE(from_peer.has_value());
  EXPECT_EQ(from_peer->cls, RouteClass::Peer);
  EXPECT_EQ(from_peer->path_len, 2);
  // AS1's view of AS0 (the destination itself): a direct customer route.
  const auto from_dest = rib_route_from(g, routes, AsId(1), AsId(0));
  ASSERT_TRUE(from_dest.has_value());
  EXPECT_EQ(from_dest->cls, RouteClass::Customer);
  EXPECT_EQ(from_dest->path_len, 1);
  // BGP loop detection: AS1's announced path for dest 0 is {1,0} — AS0
  // must never import a route to its own prefix through AS1.
  EXPECT_FALSE(rib_route_from(g, routes, AsId(0), AsId(1)).has_value());
}

TEST(RibOf, DestHasEmptyRib) {
  const AsGraph g = fig2a();
  const auto routes = compute_routes(g, AsId(0));
  EXPECT_TRUE(rib_of(g, routes, AsId(0)).empty());
}

}  // namespace
}  // namespace mifo::bgp
