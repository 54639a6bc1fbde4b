#include "verify/incremental.hpp"

#include <algorithm>

namespace mifo::verify {

namespace {

bool contains(std::span<const dp::Addr> sorted, dp::Addr dst) {
  return std::binary_search(sorted.begin(), sorted.end(), dst);
}

void accumulate(VerifyStats& into, const VerifyStats& from) {
  into.states += from.states;
  into.edges += from.edges;
}

bool held_at(std::span<const dp::Router> routers, RouterId r, dp::Addr dst) {
  return r.valid() && r.value() < routers.size() &&
         routers[r.value()].fib().contains(dst);
}

bool held_anywhere(std::span<const dp::Router> routers, dp::Addr dst) {
  return std::any_of(routers.begin(), routers.end(), [dst](const auto& r) {
    return r.fib().contains(dst);
  });
}

void add_router_fib_dests(std::span<const dp::Router> routers, RouterId r,
                          std::vector<dp::Addr>& out) {
  if (!r.valid() || r.value() >= routers.size()) return;
  for (const auto& [dst, fe] : routers[r.value()].fib()) out.push_back(dst);
}

void sort_unique(std::vector<dp::Addr>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

std::vector<dp::Addr> dirty_destinations(const dp::ChangeLog& log,
                                         std::span<const dp::Router> routers) {
  std::vector<dp::Addr> dirty;
  dirty.reserve(log.fib.size() + log.daemons.size());
  for (const auto& c : log.fib) dirty.push_back(c.dst);
  for (const auto& c : log.daemons) dirty.push_back(c.prefix);
  for (const auto& c : log.configs) {
    add_router_fib_dests(routers, c.router, dirty);
  }
  sort_unique(dirty);
  return dirty;
}

std::vector<dp::Addr> port_dirty_destinations(
    const dp::ChangeLog& log, std::span<const dp::Router> routers) {
  std::vector<dp::Addr> dirty;
  for (const auto& c : log.ports) add_router_fib_dests(routers, c.router, dirty);
  sort_unique(dirty);
  return dirty;
}

void IncrementalVerifier::track_universe(std::span<const dp::Router> routers,
                                         const dp::ChangeLog& log) {
  // An empty cache means a first check, an invalidate_all(), or an empty
  // universe (whose sweep is free): nothing to update incrementally.
  if (cache_.empty()) {
    universe_ = fib_destinations(routers);
    return;
  }
  // A destination enters or leaves the universe only through a FIB insert
  // or remove, and each of those is a FibChange. Grouped by destination, a
  // recorded router still holding `dst` settles membership in O(1); only a
  // listed destination none of its recorded routers holds any more needs
  // the other routers scanned, once per destination.
  std::vector<dp::ChangeLog::FibChange> fib = log.fib;
  std::sort(fib.begin(), fib.end(),
            [](const auto& a, const auto& b) { return a.dst < b.dst; });
  for (auto it = fib.begin(); it != fib.end();) {
    const dp::Addr dst = it->dst;
    bool held = false;
    for (; it != fib.end() && it->dst == dst; ++it) {
      held = held || held_at(routers, it->router, dst);
    }
    const auto pos = std::lower_bound(universe_.begin(), universe_.end(), dst);
    const bool listed = pos != universe_.end() && *pos == dst;
    if (listed && !held) held = held_anywhere(routers, dst);
    if (held && !listed) {
      universe_.insert(pos, dst);
    } else if (!held && listed) {
      universe_.erase(pos);
    }
  }
}

Verdict check_from_scratch(
    const dp::Network& net, const topo::AsGraph& g,
    std::span<const std::unique_ptr<core::MifoDaemon>> daemons,
    std::span<const std::pair<dp::Addr, AsId>> owners,
    const IncrementalConfig& cfg) {
  Verdict v;
  v.loop = check_loop_freedom(net);
  v.valley = check_valley_freedom(net);
  v.lint = lint_deployment(net, g, daemons, owners);
  if (cfg.blackhole) v.reach = check_reachability(net);
  v.stats.destinations = v.loop.stats.destinations;
  v.stats.dirty_destinations = v.loop.stats.destinations;
  for (const VerifyStats* s : {&v.loop.stats, &v.valley.stats,
                               &v.reach.stats}) {
    v.stats.states_explored += s->states;
    v.stats.edges_explored += s->edges;
  }
  return v;
}

bool same_findings(const Verdict& a, const Verdict& b) {
  const auto same = [](const auto& xs, const auto& ys) {
    return std::equal(xs.begin(), xs.end(), ys.begin(), ys.end(),
                      [](const auto& x, const auto& y) {
                        return x.to_string() == y.to_string();
                      });
  };
  return a.loop.loop_free == b.loop.loop_free &&
         same(a.loop.cycles, b.loop.cycles) &&
         same(a.valley.violations, b.valley.violations) &&
         same(a.lint, b.lint) && same(a.reach.blackholes, b.reach.blackholes);
}

Verdict IncrementalVerifier::check(
    const dp::Network& net, const topo::AsGraph& g,
    std::span<const std::unique_ptr<core::MifoDaemon>> daemons,
    std::span<const std::pair<dp::Addr, AsId>> owners,
    const dp::ChangeLog& log) {
  const std::span<const dp::Router> routers = net.routers();
  track_universe(routers, log);
  const std::vector<dp::Addr>& dests = universe_;
  const std::vector<dp::Addr> dirty = dirty_destinations(log, routers);
  const std::vector<dp::Addr> port_dirty =
      cfg_.blackhole ? port_dirty_destinations(log, routers)
                     : std::vector<dp::Addr>{};

  // Destinations that vanished from every FIB contribute nothing anymore.
  std::erase_if(cache_, [&](const auto& kv) {
    return !contains(dests, kv.first);
  });

  Verdict result;
  result.stats.destinations = dests.size();
  result.loop.stats.destinations = dests.size();
  result.valley.stats.destinations = dests.size();
  result.reach.stats.destinations = dests.size();

  for (const dp::Addr dst : dests) {
    auto it = cache_.find(dst);
    const bool fresh = it == cache_.end();
    const bool graph_dirty = fresh || contains(dirty, dst);
    const bool reach_dirty =
        cfg_.blackhole && (graph_dirty || contains(port_dirty, dst));

    if (graph_dirty || reach_dirty) {
      if (fresh) it = cache_.emplace(dst, DestProof{}).first;
      DestProof& proof = it->second;
      const std::span<const dp::Addr> one(&dst, 1);
      ++result.stats.dirty_destinations;

      if (graph_dirty) {
        LoopCheck lc = check_loop_freedom(routers, one);
        proof.loop_free = lc.loop_free;
        proof.cycles = std::move(lc.cycles);
        proof.loop_stats = lc.stats;
        result.stats.states_explored += lc.stats.states;
        result.stats.edges_explored += lc.stats.edges;

        ValleyCheck vc = check_valley_freedom(routers, one);
        proof.valley_free = vc.valley_free;
        proof.valleys = std::move(vc.violations);
        result.stats.states_explored += vc.stats.states;
        result.stats.edges_explored += vc.stats.edges;
        proof.lints = lint_deployment(net, g, daemons, owners, one);
      }
      if (reach_dirty) {
        ReachabilityCheck rc = check_reachability(routers, one);
        proof.reach_clean = rc.clean;
        proof.blackholes = std::move(rc.blackholes);
        result.stats.states_explored += rc.stats.states;
        result.stats.edges_explored += rc.stats.edges;
      }
    } else {
      ++result.stats.cache_hits;
    }
  }

  // Merge destination-ascending (std::map iteration order), matching the
  // full prover's fib_destinations() sweep.
  for (const auto& [dst, proof] : cache_) {
    result.loop.loop_free = result.loop.loop_free && proof.loop_free;
    result.loop.cycles.insert(result.loop.cycles.end(), proof.cycles.begin(),
                              proof.cycles.end());
    accumulate(result.loop.stats, proof.loop_stats);
    result.valley.valley_free =
        result.valley.valley_free && proof.valley_free;
    result.valley.violations.insert(result.valley.violations.end(),
                                    proof.valleys.begin(),
                                    proof.valleys.end());
    result.lint.insert(result.lint.end(), proof.lints.begin(),
                       proof.lints.end());
    result.reach.clean = result.reach.clean && proof.reach_clean;
    result.reach.blackholes.insert(result.reach.blackholes.end(),
                                   proof.blackholes.begin(),
                                   proof.blackholes.end());
  }
  return result;
}

}  // namespace mifo::verify
