#include "oracle/maxmin_reference.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "common/contracts.hpp"

namespace mifo::sim {

std::vector<double> max_min_rates_reference(const MaxMinInput& in) {
  const std::size_t nf = in.flow_links.size();
  std::vector<double> rates(nf, 0.0);
  if (nf == 0) return rates;

  // Compact the used links into local indices.
  std::unordered_map<std::uint32_t, std::uint32_t> link_index;
  std::vector<double> rem_cap;       // remaining capacity per used link
  std::vector<std::uint32_t> count;  // unfrozen flows per used link
  std::vector<std::vector<std::uint32_t>> flows_on;  // flows per used link

  std::vector<std::vector<std::uint32_t>> paths(nf);
  for (std::size_t f = 0; f < nf; ++f) {
    paths[f].reserve(in.flow_links[f].size());
    for (const std::uint32_t l : in.flow_links[f]) {
      auto [it, inserted] =
          link_index.try_emplace(l, static_cast<std::uint32_t>(rem_cap.size()));
      if (inserted) {
        MIFO_EXPECTS(l < in.link_capacity.size());
        rem_cap.push_back(in.link_capacity[l]);
        count.push_back(0);
        flows_on.emplace_back();
      }
      // A path may cross the same link at most once per direction by
      // construction; de-duplicate defensively so capacity is not
      // double-charged.
      if (std::find(paths[f].begin(), paths[f].end(), it->second) ==
          paths[f].end()) {
        paths[f].push_back(it->second);
        ++count[it->second];
        flows_on[it->second].push_back(static_cast<std::uint32_t>(f));
      }
    }
  }

  const double cap_level = in.flow_cap > 0.0
                               ? in.flow_cap
                               : std::numeric_limits<double>::infinity();
  std::vector<bool> frozen(nf, false);
  std::size_t unfrozen = nf;
  double level = 0.0;
  constexpr double kEps = 1e-9;

  // Flows with no links saturate immediately at the cap.
  for (std::size_t f = 0; f < nf; ++f) {
    if (paths[f].empty()) {
      rates[f] = in.flow_cap > 0.0 ? in.flow_cap : 0.0;
      frozen[f] = true;
      --unfrozen;
    }
  }

  while (unfrozen > 0) {
    // Smallest uniform increment until some constraint binds.
    double delta = cap_level - level;
    for (std::size_t l = 0; l < rem_cap.size(); ++l) {
      if (count[l] == 0) continue;
      delta = std::min(delta, rem_cap[l] / count[l]);
    }
    MIFO_ASSERT(delta >= 0.0);
    level += delta;

    // Charge the increment and find saturated links.
    bool at_cap = level >= cap_level - kEps;
    for (std::size_t l = 0; l < rem_cap.size(); ++l) {
      if (count[l] == 0) continue;
      rem_cap[l] -= delta * count[l];
    }

    // Freeze flows on saturated links (and everyone if the cap bound).
    auto freeze_flow = [&](std::uint32_t f) {
      if (frozen[f]) return;
      frozen[f] = true;
      rates[f] = level;
      --unfrozen;
      for (const std::uint32_t l : paths[f]) --count[l];
    };
    if (at_cap) {
      for (std::size_t f = 0; f < nf; ++f) {
        if (!frozen[f]) freeze_flow(static_cast<std::uint32_t>(f));
      }
      break;
    }
    bool froze_any = false;
    for (std::size_t l = 0; l < rem_cap.size(); ++l) {
      if (count[l] == 0) continue;
      if (rem_cap[l] <= 1e-6) {
        for (const std::uint32_t f : flows_on[l]) freeze_flow(f);
        froze_any = true;
      }
    }
    // Numerical backstop: if nothing froze despite a positive delta, freeze
    // the tightest link to guarantee progress.
    if (!froze_any) {
      std::size_t tightest = rem_cap.size();
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t l = 0; l < rem_cap.size(); ++l) {
        if (count[l] == 0) continue;
        if (rem_cap[l] < best) {
          best = rem_cap[l];
          tightest = l;
        }
      }
      if (tightest == rem_cap.size()) break;  // no constrained links remain
      for (const std::uint32_t f : flows_on[tightest]) freeze_flow(f);
    }
  }

  return rates;
}

}  // namespace mifo::sim
