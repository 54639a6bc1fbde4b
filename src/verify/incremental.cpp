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

}  // namespace

void IncrementalVerifier::track_universe(std::span<const dp::Router> routers,
                                         const ChangeSet& changes) {
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
  std::vector<dp::ChangeLog::FibChange> fib(changes.fib_records().begin(),
                                            changes.fib_records().end());
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

IncrementalResult IncrementalVerifier::check(
    const dp::Network& net, const topo::AsGraph& g,
    std::span<const std::unique_ptr<core::MifoDaemon>> daemons,
    std::span<const std::pair<dp::Addr, AsId>> owners,
    const ChangeSet& changes) {
  const std::span<const dp::Router> routers = net.routers();
  track_universe(routers, changes);
  const std::vector<dp::Addr>& dests = universe_;
  const std::vector<dp::Addr> dirty = changes.dirty_destinations(routers);
  const std::vector<dp::Addr> port_dirty =
      cfg_.blackhole ? changes.port_dirty_destinations(routers)
                     : std::vector<dp::Addr>{};

  // Destinations that vanished from every FIB contribute nothing anymore.
  std::erase_if(cache_, [&](const auto& kv) {
    return !contains(dests, kv.first);
  });

  IncrementalResult result;
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
