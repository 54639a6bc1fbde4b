#include "sim/maxmin.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <span>

#include "common/rng.hpp"
#include "oracle/maxmin_reference.hpp"

namespace mifo::sim {
namespace {

std::vector<std::span<const std::uint32_t>> views_of(
    const std::vector<std::vector<std::uint32_t>>& paths) {
  return {paths.begin(), paths.end()};
}

std::vector<double> solve(const std::vector<std::vector<std::uint32_t>>& paths,
                          const std::vector<double>& caps,
                          double flow_cap = 0.0) {
  const auto views = views_of(paths);
  MaxMinInput in;
  in.flow_links = views;
  in.link_capacity = caps;
  in.flow_cap = flow_cap;
  return max_min_rates(in);
}

TEST(MaxMin, SingleFlowGetsFullLink) {
  const auto r = solve({{0}}, {1000.0});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_NEAR(r[0], 1000.0, 1e-6);
}

TEST(MaxMin, EqualSplitOnSharedLink) {
  const auto r = solve({{0}, {0}, {0}, {0}}, {1000.0});
  for (const double x : r) EXPECT_NEAR(x, 250.0, 1e-6);
}

TEST(MaxMin, ClassicTwoBottleneckExample) {
  // Flow A uses links 0 and 1; flow B uses link 0; flow C uses link 1.
  // cap(0)=1, cap(1)=10: A and B split link 0 at 0.5; C then gets 9.5.
  const auto r = solve({{0, 1}, {0}, {1}}, {1.0, 10.0});
  EXPECT_NEAR(r[0], 0.5, 1e-6);
  EXPECT_NEAR(r[1], 0.5, 1e-6);
  EXPECT_NEAR(r[2], 9.5, 1e-6);
}

TEST(MaxMin, FlowCapBindsBeforeLinks) {
  const auto r = solve({{0}, {0}}, {1000.0}, 100.0);
  EXPECT_NEAR(r[0], 100.0, 1e-6);
  EXPECT_NEAR(r[1], 100.0, 1e-6);
}

TEST(MaxMin, EmptyPathGetsFlowCap) {
  const auto r = solve({{}}, {}, 1000.0);
  EXPECT_DOUBLE_EQ(r[0], 1000.0);
}

TEST(MaxMin, NoFlows) { EXPECT_TRUE(solve({}, {1.0}).empty()); }

TEST(MaxMin, DuplicateLinkInPathChargedOnce) {
  // Defensive behaviour: a repeated link id must not double-charge.
  const auto r = solve({{0, 0}}, {1000.0});
  EXPECT_NEAR(r[0], 1000.0, 1e-6);
}

TEST(MaxMin, ExplicitLinkUniverseWiderThanUsedIds) {
  // num_links sizes the dense workspace; ids beyond the ones actually used
  // cost nothing, and any used id must still have a capacity entry.
  const std::vector<std::vector<std::uint32_t>> paths{{0}};
  const auto views = views_of(paths);
  const std::vector<double> caps{1000.0};
  MaxMinInput in;
  in.flow_links = views;
  in.link_capacity = caps;
  in.num_links = 16;  // sparse universe, only id 0 used
  MaxMinWorkspace ws;
  const auto r = max_min_rates(in, ws);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_NEAR(r[0], 1000.0, 1e-6);
}

TEST(MaxMin, WorkspaceReuseAcrossDifferentInstances) {
  // A workspace carrying state from one instance must not leak into the
  // next (epoch stamping) — including shrinking instances.
  MaxMinWorkspace ws;
  const std::vector<double> caps{100.0, 200.0, 300.0};

  const std::vector<std::vector<std::uint32_t>> a{{0, 1}, {1, 2}, {2}};
  const auto va = views_of(a);
  MaxMinInput ia;
  ia.flow_links = va;
  ia.link_capacity = caps;
  const auto ra = max_min_rates(ia, ws);
  (void)ra;

  const std::vector<std::vector<std::uint32_t>> b{{2}};
  const auto vb = views_of(b);
  MaxMinInput ib;
  ib.flow_links = vb;
  ib.link_capacity = caps;
  const auto rb = max_min_rates(ib, ws);
  ASSERT_EQ(rb.size(), 1u);
  EXPECT_NEAR(rb[0], 300.0, 1e-6);  // full link: flow count was re-stamped
}

// Property tests on random instances.
class MaxMinProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxMinProperty, FeasibleAndBottleneckJustified) {
  Rng rng(GetParam());
  const std::size_t nl = 30;
  const std::size_t nf = 120;
  std::vector<double> caps(nl);
  for (auto& c : caps) c = rng.uniform(100.0, 1000.0);
  std::vector<std::vector<std::uint32_t>> paths(nf);
  for (auto& p : paths) {
    const std::size_t hops = 1 + rng.bounded(4);
    std::set<std::uint32_t> links;
    while (links.size() < hops) {
      links.insert(static_cast<std::uint32_t>(rng.bounded(nl)));
    }
    p.assign(links.begin(), links.end());
  }
  const auto views = views_of(paths);
  MaxMinInput in;
  in.flow_links = views;
  in.link_capacity = caps;
  in.flow_cap = 1000.0;
  const auto rates = max_min_rates(in);

  // (1) Feasibility: no link over capacity.
  std::vector<double> load(nl, 0.0);
  for (std::size_t f = 0; f < nf; ++f) {
    EXPECT_GT(rates[f], 0.0);
    EXPECT_LE(rates[f], 1000.0 + 1e-6);
    for (const auto l : paths[f]) load[l] += rates[f];
  }
  for (std::size_t l = 0; l < nl; ++l) {
    EXPECT_LE(load[l], caps[l] + 1e-4) << "link " << l;
  }
  // (2) Max-min witness: every flow is either at the flow cap or crosses a
  // link that is saturated and on which it has a maximal rate.
  for (std::size_t f = 0; f < nf; ++f) {
    if (rates[f] >= 1000.0 - 1e-6) continue;
    bool witnessed = false;
    for (const auto l : paths[f]) {
      if (load[l] >= caps[l] - 1e-3) {
        bool is_max = true;
        for (std::size_t g2 = 0; g2 < nf; ++g2) {
          if (std::find(paths[g2].begin(), paths[g2].end(), l) ==
              paths[g2].end()) {
            continue;
          }
          if (rates[g2] > rates[f] + 1e-6) {
            is_max = false;
            break;
          }
        }
        if (is_max) {
          witnessed = true;
          break;
        }
      }
    }
    EXPECT_TRUE(witnessed) << "flow " << f << " rate " << rates[f];
  }
}

// Differential property: the dense-workspace solver must return exactly the
// rates of the retained reference implementation, at scale, across random
// instances — reusing ONE workspace across all of them to also exercise
// stale-state isolation between calls.
TEST_P(MaxMinProperty, DenseSolverMatchesReferenceAtScale) {
  Rng rng(GetParam() * 977 + 5);
  MaxMinWorkspace ws;
  for (int round = 0; round < 4; ++round) {
    const std::size_t nl = 50 + rng.bounded(500);
    const std::size_t nf = 100 + rng.bounded(1500);
    std::vector<double> caps(nl);
    for (auto& c : caps) c = rng.uniform(10.0, 1000.0);
    std::vector<std::vector<std::uint32_t>> paths(nf);
    for (auto& p : paths) {
      // ~3% of flows get an empty path; some paths carry duplicate ids to
      // exercise the dedup branch.
      if (rng.bounded(32) == 0) continue;
      const std::size_t hops = 1 + rng.bounded(6);
      for (std::size_t h = 0; h < hops; ++h) {
        p.push_back(static_cast<std::uint32_t>(rng.bounded(nl)));
      }
      if (rng.bounded(8) == 0) p.push_back(p.front());
    }
    const auto views = views_of(paths);
    MaxMinInput in;
    in.flow_links = views;
    in.link_capacity = caps;
    in.flow_cap = round % 2 == 0 ? 1000.0 : 0.0;  // with and without cap
    in.num_links = nl;

    const auto dense = max_min_rates(in, ws);
    const auto ref = max_min_rates_reference(in);
    ASSERT_EQ(dense.size(), ref.size());
    for (std::size_t f = 0; f < nf; ++f) {
      // Identical per-link arithmetic: bitwise-equal rates.
      EXPECT_EQ(dense[f], ref[f]) << "flow " << f << " round " << round;
    }
  }
}

// Capacity shapes random 10–1000 draws almost never produce: equal
// capacities among single-flow links (the solver's classes), exact quotient
// ties, magnitudes where charging leaves residues above the saturation
// tolerance (the numerical backstop), and subnormal quotients.
enum class CapShape { FlowCap, FewDistinct, Ties, Huge, Subnormal };

struct ShapedInstance {
  std::vector<double> caps;
  std::vector<std::vector<std::uint32_t>> paths;
  double flow_cap = 0.0;
};

ShapedInstance shaped_instance(Rng& rng, CapShape shape, std::size_t nl,
                               std::size_t nf) {
  ShapedInstance x;
  x.caps.resize(nl);
  const bool capped = rng.bounded(2) == 0;
  for (double& c : x.caps) {
    switch (shape) {
      case CapShape::FlowCap:  // fig5_batch: every link at the flow cap
        c = 1000.0;
        break;
      case CapShape::FewDistinct:
        c = std::array{100.0, 250.0, 1000.0, 4000.0}[rng.bounded(4)];
        break;
      case CapShape::Ties:
        c = 12.0 * static_cast<double>(1 + rng.bounded(8));
        break;
      case CapShape::Huge:
        c = rng.uniform(1e12, 2e12);
        break;
      case CapShape::Subnormal:
        c = rng.uniform(1e-312, 1e-309);
        break;
    }
  }
  switch (shape) {
    case CapShape::FlowCap:
      x.flow_cap = 1000.0;
      break;
    case CapShape::FewDistinct:
      x.flow_cap = capped ? 1000.0 : 0.0;
      break;
    case CapShape::Ties:
      x.flow_cap = capped ? 48.0 : 0.0;
      break;
    case CapShape::Huge:
    case CapShape::Subnormal:
      break;
  }
  x.paths.resize(nf);
  for (auto& p : x.paths) {
    if (rng.bounded(32) == 0) continue;
    const std::size_t hops = 1 + rng.bounded(6);
    for (std::size_t h = 0; h < hops; ++h) {
      p.push_back(static_cast<std::uint32_t>(rng.bounded(nl)));
    }
    if (rng.bounded(8) == 0) p.push_back(p.front());
  }
  return x;
}

void expect_matches_reference(const ShapedInstance& x, MaxMinWorkspace& ws,
                              const char* what) {
  const auto views = views_of(x.paths);
  MaxMinInput in;
  in.flow_links = views;
  in.link_capacity = x.caps;
  in.flow_cap = x.flow_cap;
  in.num_links = x.caps.size();
  const auto rates = max_min_rates(in, ws);
  const auto ref = max_min_rates_reference(in);
  ASSERT_EQ(rates.size(), ref.size());
  for (std::size_t f = 0; f < ref.size(); ++f) {
    EXPECT_EQ(rates[f], ref[f]) << what << " flow " << f;
  }
}

// The same bitwise differential over every capacity shape, with one
// workspace carried across instances that grow and shrink.
TEST_P(MaxMinProperty, SolverMatchesReferenceOnCapacityShapes) {
  Rng rng(GetParam() * 7919 + 3);
  MaxMinWorkspace ws;
  const std::array shapes{CapShape::FlowCap, CapShape::FewDistinct,
                          CapShape::Ties, CapShape::Huge,
                          CapShape::Subnormal};
  const std::array<const char*, 5> names{"flow-cap", "few-distinct", "ties",
                                         "huge", "subnormal"};
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    for (const std::size_t scale : {40, 600, 5, 1200}) {
      const ShapedInstance x =
          shaped_instance(rng, shapes[s], scale + rng.bounded(scale),
                          scale / 2 + 1 + rng.bounded(scale));
      expect_matches_reference(x, ws, names[s]);
    }
  }
}

// A round where no link saturates and a single-flow link is the tightest:
// the backstop must freeze only the first-seen such link's flow, although
// a second link shares its capacity (and so its remaining capacity).
TEST(MaxMin, BackstopFreezesFirstSeenSingleFlowLink) {
  // Link 0 carries three flows; 0x1p-13 of its capacity survives charging
  // the round's increment, above the 1e-6 saturation tolerance. Links 1
  // and 2 carry one flow each and keep 0x1p-14 after the same round.
  const double shared = 1025445860993.4608;
  const double single = std::nextafter(shared / 3.0, 1e300);
  const ShapedInstance x{{shared, single, single}, {{2}, {0}, {0}, {0}, {1}}};
  MaxMinWorkspace ws;
  expect_matches_reference(x, ws, "backstop");
  const auto rates = solve(x.paths, x.caps);
  EXPECT_EQ(rates[0], shared / 3.0);  // link 2 is seen first
  EXPECT_GT(rates[4], rates[0]);

  // Two links left with equal remaining capacity: the first-seen one goes.
  const ShapedInstance tie{{shared, shared}, {{1}, {1}, {1}, {0}, {0}, {0}}};
  expect_matches_reference(tie, ws, "backstop tie");
  const auto tie_rates = solve(tie.paths, tie.caps);
  EXPECT_LT(tie_rates[0], tie_rates[3]);  // link 1 is seen first
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace mifo::sim
