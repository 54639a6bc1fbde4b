#include "topo/serialization.hpp"

#include <gtest/gtest.h>

#include "topo/analysis.hpp"
#include "topo/generator.hpp"

namespace mifo::topo {
namespace {

TEST(Serialization, RoundTripSmallGraph) {
  AsGraph g(3);
  g.add_provider_customer(AsId(0), AsId(1));
  g.add_peering(AsId(1), AsId(2));
  g.info(AsId(0)).tier = 1;
  g.info(AsId(2)).content_provider = true;

  const AsGraph parsed = parse_string(serialize_to_string(g));
  EXPECT_EQ(parsed.num_ases(), 3u);
  EXPECT_EQ(parsed.rel(AsId(0), AsId(1)), Rel::Customer);
  EXPECT_EQ(parsed.rel(AsId(1), AsId(0)), Rel::Provider);
  EXPECT_EQ(parsed.rel(AsId(1), AsId(2)), Rel::Peer);
  EXPECT_EQ(parsed.info(AsId(0)).tier, 1);
  EXPECT_TRUE(parsed.info(AsId(2)).content_provider);
}

TEST(Serialization, RoundTripGeneratedTopology) {
  GeneratorParams p;
  p.num_ases = 500;
  p.seed = 11;
  const AsGraph g = generate_topology(p);
  const AsGraph parsed = parse_string(serialize_to_string(g));

  ASSERT_EQ(parsed.num_ases(), g.num_ases());
  EXPECT_EQ(parsed.num_adjacencies(), g.num_adjacencies());
  EXPECT_EQ(parsed.num_pc_adjacencies(), g.num_pc_adjacencies());
  EXPECT_EQ(parsed.num_peer_adjacencies(), g.num_peer_adjacencies());
  for (std::uint32_t i = 0; i < g.num_ases(); ++i) {
    const AsId as(i);
    ASSERT_EQ(parsed.degree(as), g.degree(as)) << "AS " << i;
    for (const auto& nb : g.neighbors(as)) {
      EXPECT_EQ(parsed.rel(as, nb.as), nb.rel);
    }
    EXPECT_EQ(parsed.info(as).tier, g.info(as).tier);
    EXPECT_EQ(parsed.info(as).content_provider, g.info(as).content_provider);
  }
}

TEST(Serialization, ParseIgnoresCommentsAndBlankLines) {
  const std::string text =
      "# a comment\n"
      "\n"
      "0 1 p2c\n"
      "# another\n"
      "1 2 peer\n";
  const AsGraph g = parse_string(text);
  EXPECT_EQ(g.num_ases(), 3u);
  EXPECT_EQ(g.rel(AsId(0), AsId(1)), Rel::Customer);
  EXPECT_EQ(g.rel(AsId(2), AsId(1)), Rel::Peer);
}

TEST(Serialization, ParseGrowsToLargestId) {
  const AsGraph g = parse_string("0 9 peer\n");
  EXPECT_EQ(g.num_ases(), 10u);
}

TEST(Serialization, DeclaredNodeCountCreatesIsolatedAses) {
  const AsGraph g = parse_string("# nodes 5\n0 1 p2c\n");
  EXPECT_EQ(g.num_ases(), 5u);
  EXPECT_EQ(g.degree(AsId(4)), 0u);
}

/// parse_string(text) must throw a ParseError naming `line` whose reason
/// contains `reason`.
void expect_parse_error(const std::string& text, std::size_t line,
                        const std::string& reason) {
  try {
    (void)parse_string(text);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), line) << e.what();
    EXPECT_NE(e.reason().find(reason), std::string::npos) << e.what();
    EXPECT_EQ(std::string(e.what()),
              "line " + std::to_string(line) + ": " + e.reason());
  }
}

TEST(Serialization, UnparsableLineIsAParseError) {
  expect_parse_error("0 1 p2c\n0 x p2c\n", 2, "expected");
  expect_parse_error("# comment\n\n7\n", 3, "expected");
}

TEST(Serialization, UnknownLinkKindIsAParseError) {
  expect_parse_error("0 1 p2c\n1 2 sibling\n", 2, "unknown link kind");
}

TEST(Serialization, SelfLoopIsAParseError) {
  expect_parse_error("0 1 peer\n3 3 p2c\n", 2, "self-loop at AS3");
}

TEST(Serialization, ContradictoryDuplicateEdgeIsAParseError) {
  expect_parse_error("0 1 p2c\n1 0 p2c\n", 2,
                     "'1 0 p2c' contradicts the earlier '0 1 p2c'");
  expect_parse_error("0 1 p2c\n0 1 peer\n", 2,
                     "'0 1 peer' contradicts the earlier '0 1 p2c'");
}

TEST(Serialization, RepeatedEdgeIsAccepted) {
  const AsGraph g = parse_string("0 1 p2c\n0 1 p2c\n1 2 peer\n2 1 peer\n");
  EXPECT_EQ(g.num_adjacencies(), 2u);
  EXPECT_EQ(g.rel(AsId(0), AsId(1)), Rel::Customer);
  EXPECT_EQ(g.rel(AsId(2), AsId(1)), Rel::Peer);
}

TEST(Serialization, AsIdBeyondTheLimitIsAParseError) {
  // "-1" reads as the largest 32-bit id; allocating up to it is refused.
  expect_parse_error("0 -1 p2c\n", 1, "exceeds the limit");
  expect_parse_error("# nodes 99999999\n", 1, "exceeds the limit");
}

TEST(Serialization, ProviderCycleParsesButBreaksThePremise) {
  // Well-formed line by line, so parse() accepts it; the verifier tools
  // refuse it through is_pc_acyclic, the loop-freedom theorem's premise.
  const AsGraph g = parse_string("0 1 p2c\n1 2 p2c\n2 0 p2c\n");
  EXPECT_EQ(g.num_pc_adjacencies(), 3u);
  EXPECT_FALSE(is_pc_acyclic(g));
}

}  // namespace
}  // namespace mifo::topo
