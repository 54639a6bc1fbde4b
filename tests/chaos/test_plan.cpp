// Chaos-plan tests: DSL parse/format round-trips, paired-failure and
// periodic expansion, malformed input, and the seeded generator's
// determinism and structural invariants (docs/CHAOS.md).

#include <gtest/gtest.h>

#include <string>

#include "chaos/plan.hpp"
#include "topo/generator.hpp"

namespace mifo::chaos {
namespace {

TEST(ChaosPlan, ParsesEveryDirectiveKind) {
  const std::string text =
      "# a scripted scenario\n"
      "duration 2.0\n"
      "at 0.1 link-down 1 2\n"
      "at 0.2 link-up 1 2\n"
      "at 0.3 degrade 3 4 0.25\n"
      "at 0.4 restore 3 4\n"
      "at 0.5 withdraw 5\n"
      "at 0.6 reannounce 5\n"
      "at 0.7 ibgp-drop 6\n"
      "at 0.8 ibgp-restore 6\n"
      "at 0.9 freeze 7\n"
      "at 1.0 restart 7\n"
      "at 1.1 burst 8 9 4 2.5\n"
      "at 1.2 plant-valley\n";
  std::string error;
  const auto plan = parse_plan(text, error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_DOUBLE_EQ(plan->duration, 2.0);
  ASSERT_EQ(plan->events.size(), 12u);
  EXPECT_EQ(plan->events.front().kind, EventKind::LinkDown);
  EXPECT_EQ(plan->events.back().kind, EventKind::PlantValley);
  const Event& burst = plan->events[10];
  EXPECT_EQ(burst.kind, EventKind::Burst);
  EXPECT_EQ(burst.a, AsId(8));
  EXPECT_EQ(burst.b, AsId(9));
  EXPECT_EQ(burst.count, 4u);
  EXPECT_DOUBLE_EQ(burst.value, 2.5);
}

/// Every field of every event, and the duration, survive exactly.
void expect_same_plan(const Plan& got, const Plan& want) {
  EXPECT_EQ(got.duration, want.duration);
  ASSERT_EQ(got.events.size(), want.events.size());
  for (std::size_t i = 0; i < want.events.size(); ++i) {
    const Event& x = got.events[i];
    const Event& y = want.events[i];
    EXPECT_EQ(x.t, y.t) << i;
    EXPECT_EQ(x.kind, y.kind) << i;
    EXPECT_EQ(x.a, y.a) << i;
    EXPECT_EQ(x.b, y.b) << i;
    EXPECT_EQ(x.value, y.value) << i;
    EXPECT_EQ(x.count, y.count) << i;
  }
}

TEST(ChaosPlan, FormatParseRoundTripIsIdentity) {
  // Sub-microsecond times and a factor with seven significant digits: a
  // fixed six-decimal rendering rounds the first to 0 and the second off.
  for (const char* text :
       {"duration 1.5\n"
        "at 0.0000002 link-down 0 1\n"
        "at 0.2 degrade 1 2 0.1234567\n"
        "at 0.4 withdraw 3\n"
        "at 0.6 burst 0 3 2 1.0\n"
        "at 0.9 restore 1 2\n",
        "duration 0.0000004\n"
        "at 0.0000002 link-down 0 1\n"}) {
    std::string error;
    const auto plan = parse_plan(text, error);
    ASSERT_TRUE(plan.has_value()) << error;
    const std::string once = format_plan(*plan);
    const auto reparsed = parse_plan(once, error);
    ASSERT_TRUE(reparsed.has_value()) << error << "\n" << once;
    EXPECT_EQ(format_plan(*reparsed), once);
    expect_same_plan(*reparsed, *plan);
  }
  Event ev;
  ev.t = 0.5;
  ev.a = AsId(3);
  ev.b = AsId(7);
  EXPECT_EQ(ev.to_string(), "at 0.5 link-down 3 7");
}

TEST(ChaosPlan, FailDirectiveExpandsToPairedEvents) {
  std::string error;
  const auto plan = parse_plan(
      "duration 1\n"
      "fail 0.2 mttr 0.3 link 1 2\n"
      "fail 0.4 mttr 0.2 prefix 5\n"
      "fail 0.5 mttr 0.1 ibgp 6\n"
      "fail 0.6 mttr 0.1 router 7\n",
      error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_EQ(plan->events.size(), 8u);
  // Sorted by time, each failure followed by its recovery at t + mttr.
  EXPECT_EQ(plan->events[0].kind, EventKind::LinkDown);
  EXPECT_DOUBLE_EQ(plan->events[0].t, 0.2);
  EXPECT_EQ(plan->events[1].kind, EventKind::Withdraw);
  const auto find = [&](EventKind k) -> const Event* {
    for (const auto& e : plan->events) {
      if (e.kind == k) return &e;
    }
    return nullptr;
  };
  ASSERT_NE(find(EventKind::LinkUp), nullptr);
  EXPECT_DOUBLE_EQ(find(EventKind::LinkUp)->t, 0.5);
  ASSERT_NE(find(EventKind::Reannounce), nullptr);
  EXPECT_DOUBLE_EQ(find(EventKind::Reannounce)->t, 0.6);
  ASSERT_NE(find(EventKind::IbgpRestore), nullptr);
  ASSERT_NE(find(EventKind::RouterRestart), nullptr);
  for (std::size_t i = 1; i < plan->events.size(); ++i) {
    EXPECT_LE(plan->events[i - 1].t, plan->events[i].t);
  }
}

TEST(ChaosPlan, EveryDirectiveExpandsUntilDuration) {
  std::string error;
  const auto plan = parse_plan(
      "duration 1\n"
      "every 0.1 0.2 ibgp-drop 3\n",
      error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_GE(plan->events.size(), 4u);
  SimTime prev = -1.0;
  for (const auto& e : plan->events) {
    EXPECT_EQ(e.kind, EventKind::IbgpDrop);
    EXPECT_EQ(e.a, AsId(3));
    EXPECT_GT(e.t, prev);
    EXPECT_LT(e.t, plan->duration);
    prev = e.t;
  }
  EXPECT_DOUBLE_EQ(plan->events.front().t, 0.1);
}

TEST(ChaosPlan, EveryDirectiveExpansionIsBounded) {
  // A period far below the duration, and one too small to advance the time
  // at all (t + period == t), are input errors naming the line.
  const std::string expected = "line 2: every: expands to more than " +
                               std::to_string(kMaxEveryEvents) + " events";
  for (const char* text : {"duration 1\nevery 0 1e-9 ibgp-drop 1\n",
                           "duration 1e18\nevery 1e17 1 ibgp-drop 1\n"}) {
    std::string error;
    EXPECT_FALSE(parse_plan(text, error).has_value()) << text;
    EXPECT_EQ(error, expected) << text;
  }
  // Exactly at the cap, the directive still expands in full.
  std::string error;
  const auto plan = parse_plan("duration " +
                                   std::to_string(kMaxEveryEvents - 1) +
                                   "\nevery 0 1 ibgp-drop 1\n",
                               error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_EQ(plan->events.size(), kMaxEveryEvents);
}

TEST(ChaosPlan, BurstFlowCountIsBounded) {
  // COUNT 4e9 once started four billion flows and died in bad_alloc.
  std::string error;
  EXPECT_FALSE(parse_plan("duration 1\nat 0.1 burst 1 2 4000000000 1\n", error)
                   .has_value());
  EXPECT_EQ(error, "line 2: burst: COUNT 4000000000 is above the cap of " +
                       std::to_string(kMaxBurstFlows) + " flows");
  // The same event inside an `every` directive is refused the same way.
  EXPECT_FALSE(parse_plan("every 0 0.5 burst 1 2 4000000000 1\n", error)
                   .has_value());
  EXPECT_EQ(error.rfind("line 1: burst: COUNT", 0), 0u) << error;
  // Exactly at the cap the event still parses; one flow more does not.
  const auto plan = parse_plan(
      "at 0.1 burst 1 2 " + std::to_string(kMaxBurstFlows) + " 1\n", error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_EQ(plan->events.front().count, kMaxBurstFlows);
  EXPECT_FALSE(parse_plan("at 0.1 burst 1 2 " +
                              std::to_string(kMaxBurstFlows + 1) + " 1\n",
                          error)
                   .has_value());
}

TEST(ChaosPlan, BurstSizeMustFitThePacketCounter) {
  // SIZE_MB 1e300 once reached an out-of-range float-to-integer cast in
  // Engine::start_burst and then a precondition abort in register_flow.
  std::string error;
  EXPECT_FALSE(
      parse_plan("duration 1\nat 0.1 burst 1 2 3 1e300\n", error).has_value());
  EXPECT_EQ(error.rfind("line 2: burst: SIZE_MB 1e+300 is not finite", 0), 0u)
      << error;
  // 2^32 - 1 packets of dp::FlowParams' 1,000 bytes is the largest flow;
  // one megabyte more needs packets the counter cannot hold.
  EXPECT_TRUE(parse_plan("at 0.1 burst 1 2 3 4294967.295\n", error)
                  .has_value())
      << error;
  EXPECT_FALSE(
      parse_plan("at 0.1 burst 1 2 3 4294968.295\n", error).has_value());
  EXPECT_EQ(error.rfind("line 1: burst: SIZE_MB", 0), 0u) << error;
}

TEST(ChaosPlan, EventTimesMustFallInsideTheDuration) {
  // The engine advances the emulator to each event's time: `at 1e6` and a
  // repair 1e9 s out were still running, daemons ticking, after 20 s.
  std::string error;
  EXPECT_FALSE(
      parse_plan("duration 0.5\nat 1e6 link-down 0 1\n", error).has_value());
  EXPECT_EQ(error, "line 2: at: time 1e+06 is past the plan's duration 0.5");
  EXPECT_FALSE(parse_plan("duration 0.5\nfail 0.1 mttr 1e9 link 0 1\n", error)
                   .has_value());
  EXPECT_EQ(error,
            "line 2: fail: recovery time 1e+09 is past the plan's duration "
            "0.5");
  // `duration` may come last: the check uses its final value.
  EXPECT_FALSE(
      parse_plan("at 0.8 link-down 0 1\nduration 0.5\n", error).has_value());
  EXPECT_EQ(error, "line 1: at: time 0.8 is past the plan's duration 0.5");
  // An event exactly at the duration is inside the plan.
  EXPECT_TRUE(parse_plan("at 0.8 link-down 0 1\nfail 0.5 mttr 0.5 prefix 3\n"
                         "duration 1\n",
                         error)
                  .has_value())
      << error;
}

TEST(ChaosPlan, MalformedInputYieldsErrorNotPlan) {
  std::string error;
  EXPECT_FALSE(parse_plan("at 0.1 link-down 1\n", error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_plan("frobnicate 1 2\n", error).has_value());
  EXPECT_FALSE(parse_plan("at x link-down 1 2\n", error).has_value());
  EXPECT_FALSE(parse_plan("fail 0.1 mttr 0.1 teapot 1\n", error).has_value());
}

TEST(ChaosPlan, RecoveryKindPairing) {
  EXPECT_EQ(recovery_of(EventKind::LinkDown), EventKind::LinkUp);
  EXPECT_EQ(recovery_of(EventKind::Degrade), EventKind::Restore);
  EXPECT_EQ(recovery_of(EventKind::Withdraw), EventKind::Reannounce);
  EXPECT_EQ(recovery_of(EventKind::IbgpDrop), EventKind::IbgpRestore);
  EXPECT_EQ(recovery_of(EventKind::RouterFreeze), EventKind::RouterRestart);
  EXPECT_FALSE(recovery_of(EventKind::Burst).has_value());
  EXPECT_FALSE(recovery_of(EventKind::LinkUp).has_value());
  EXPECT_TRUE(is_recovery(EventKind::Reannounce));
  EXPECT_FALSE(is_recovery(EventKind::Withdraw));
}

TEST(ChaosPlan, NormalizeSortsStably) {
  Plan p;
  p.duration = 1.0;
  Event a;
  a.t = 0.5;
  a.kind = EventKind::IbgpDrop;
  Event b;
  b.t = 0.1;
  b.kind = EventKind::LinkDown;
  Event c;
  c.t = 0.5;
  c.kind = EventKind::Burst;
  p.events = {a, b, c};
  p.normalize();
  EXPECT_EQ(p.events[0].kind, EventKind::LinkDown);
  EXPECT_EQ(p.events[1].kind, EventKind::IbgpDrop);  // stable: a before c
  EXPECT_EQ(p.events[2].kind, EventKind::Burst);
}

// One plan line per event kind that names an AS, with one id outside a
// 36-AS topology. mifo-chaos once indexed its per-AS state with these ids
// unchecked: ibgp-drop, freeze and link-down crashed with SIGSEGV, while
// withdraw and burst ran to exit 0 on a plan that named no real AS.
class PlanOutsideTopology : public ::testing::TestWithParam<const char*> {};

TEST_P(PlanOutsideTopology, ValidateNamesTheOffendingEvent) {
  constexpr std::size_t kAses = 36;
  const std::string bad = std::string("at 0.2 ") + GetParam() + "\n";
  std::string error;
  const auto plan =
      parse_plan("duration 1.0\nat 0.1 link-down 1 2\n" + bad, error);
  ASSERT_TRUE(plan.has_value()) << error;
  const auto offending = validate_plan(*plan, kAses);
  ASSERT_TRUE(offending.has_value());
  EXPECT_EQ(offending->to_string(), plan->events[1].to_string());
  // The first event alone fits.
  Plan ok = *plan;
  ok.events.pop_back();
  EXPECT_FALSE(validate_plan(ok, kAses).has_value());
  // Every id is in range once the topology is large enough.
  EXPECT_FALSE(validate_plan(*plan, 4'000'001).has_value());
}

INSTANTIATE_TEST_SUITE_P(
    EventKinds, PlanOutsideTopology,
    ::testing::Values("link-down 3 99999", "link-up 99999 3",
                      "degrade 3 99999 0.5", "restore 99999 3",
                      "withdraw 77777", "reannounce 77777",
                      "ibgp-drop 99999", "ibgp-restore 99999",
                      "freeze 4000000", "restart 4000000",
                      "burst 0 99999 4 2.0", "burst 99999 0 4 2.0"));

TEST(ChaosPlan, ValidateIgnoresKindsWithoutAsIds) {
  std::string error;
  const auto plan = parse_plan(
      "duration 1.0\nat 0.1 plant-valley\nat 0.2 plant-stale-route\n", error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_FALSE(validate_plan(*plan, 4).has_value());
  // A hand-built event that never set its AS is outside any topology.
  Plan p;
  Event ev;
  ev.kind = EventKind::Withdraw;
  p.events.push_back(ev);
  EXPECT_TRUE(validate_plan(p, 36).has_value());
}

class GeneratorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorProperty, DeterministicAndWellFormed) {
  topo::GeneratorParams tp;
  tp.num_ases = 30;
  tp.num_tier1 = 3;
  tp.seed = GetParam();
  const auto g = topo::generate_topology(tp);

  GenParams gp;
  gp.seed = GetParam();
  gp.duration = 2.0;
  gp.rate = 8.0;
  gp.prefix_owners = {AsId(0), AsId(5), AsId(20)};
  const Plan p1 = generate_plan(g, gp);
  const Plan p2 = generate_plan(g, gp);
  EXPECT_EQ(format_plan(p1), format_plan(p2));

  GenParams other = gp;
  other.seed = GetParam() + 1000;
  EXPECT_NE(format_plan(p1), format_plan(generate_plan(g, other)));

  // Structural invariants: sorted, inside the duration, every failure has
  // its recovery later in the plan, link subjects are real adjacencies.
  SimTime prev = 0.0;
  for (const auto& e : p1.events) {
    EXPECT_GE(e.t, prev);
    EXPECT_GE(e.t, 0.0);
    EXPECT_LT(e.t, p1.duration);
    prev = e.t;
    if (e.kind == EventKind::LinkDown || e.kind == EventKind::Degrade) {
      EXPECT_TRUE(g.adjacent(e.a, e.b))
          << e.a.value() << " " << e.b.value();
    }
    if (e.kind == EventKind::Withdraw) {
      bool owner = false;
      for (const AsId o : gp.prefix_owners) owner = owner || o == e.a;
      EXPECT_TRUE(owner);
    }
  }
  for (std::size_t i = 0; i < p1.events.size(); ++i) {
    const auto rec = recovery_of(p1.events[i].kind);
    if (!rec.has_value()) continue;
    bool paired = false;
    for (std::size_t j = i + 1; j < p1.events.size() && !paired; ++j) {
      paired = p1.events[j].kind == *rec &&
               p1.events[j].a == p1.events[i].a &&
               p1.events[j].b == p1.events[i].b;
    }
    EXPECT_TRUE(paired) << p1.events[i].to_string();
  }

  // The generated plan survives a DSL round-trip, field for field.
  std::string error;
  const auto reparsed = parse_plan(format_plan(p1), error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  expect_same_plan(*reparsed, p1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorProperty,
                         ::testing::Values(1, 2, 3, 7, 11));

}  // namespace
}  // namespace mifo::chaos
