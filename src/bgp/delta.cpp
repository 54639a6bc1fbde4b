#include "bgp/delta.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace mifo::bgp {

namespace {

std::pair<AsId, AsId> norm_pair(AsId x, AsId y) {
  return x < y ? std::pair{x, y} : std::pair{y, x};
}

bool span_equal(std::span<const Route> a, std::span<const Route> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

bool span_equal(std::span<const AsId> a, std::span<const AsId> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace

const char* to_string(RouteEvent::Kind k) {
  switch (k) {
    case RouteEvent::Kind::Withdraw:
      return "withdraw";
    case RouteEvent::Kind::Reannounce:
      return "reannounce";
    case RouteEvent::Kind::SessionDown:
      return "session_down";
    case RouteEvent::Kind::SessionUp:
      return "session_up";
  }
  return "?";
}

std::string RouteEvent::to_string() const {
  std::string s = bgp::to_string(kind);
  s += " AS" + std::to_string(a.value());
  if (b.valid()) s += "-AS" + std::to_string(b.value());
  return s;
}

bool stores_identical(const RouteStore& a, const RouteStore& b) {
  if (a.dest() != b.dest() || a.num_ases() != b.num_ases() ||
      a.num_reachable() != b.num_reachable()) {
    return false;
  }
  if (!span_equal(a.all_best(), b.all_best())) return false;
  for (std::size_t i = 0; i < a.num_ases(); ++i) {
    const AsId as(static_cast<std::uint32_t>(i));
    if (!span_equal(a.rib(as), b.rib(as))) return false;
    if (!span_equal(a.path(as), b.path(as))) return false;
  }
  return true;
}

DeltaRoutingTable::DeltaRoutingTable(const topo::AsGraph& base,
                                     std::vector<AsId> dests)
    : base_(&base), dests_(std::move(dests)) {
  std::sort(dests_.begin(), dests_.end());
  dests_.erase(std::unique(dests_.begin(), dests_.end()), dests_.end());
  dest_index_.assign(base.num_ases(), -1);
  for (std::size_t i = 0; i < dests_.size(); ++i) {
    MIFO_EXPECTS(dests_[i].value() < base.num_ases());
    dest_index_[dests_[i].value()] = static_cast<std::int32_t>(i);
  }
  current_ = build_masked();
  segments_.resize(dests_.size());
  for (std::size_t i = 0; i < dests_.size(); ++i) republish(i);
}

std::size_t DeltaRoutingTable::index_of(AsId dest) const {
  if (dest.value() >= dest_index_.size()) return dests_.size();
  const std::int32_t idx = dest_index_[dest.value()];
  return idx < 0 ? dests_.size() : static_cast<std::size_t>(idx);
}

bool DeltaRoutingTable::tracks(AsId dest) const {
  return index_of(dest) < dests_.size();
}

bool DeltaRoutingTable::withdrawn(AsId origin) const {
  return std::find(withdrawn_.begin(), withdrawn_.end(), origin) !=
         withdrawn_.end();
}

bool DeltaRoutingTable::session_disabled(AsId x, AsId y) const {
  return std::find(disabled_.begin(), disabled_.end(), norm_pair(x, y)) !=
         disabled_.end();
}

std::shared_ptr<const RouteSegment> DeltaRoutingTable::segment(
    AsId dest) const {
  const std::size_t idx = index_of(dest);
  if (idx >= dests_.size()) return nullptr;
  return segments_[idx];
}

std::shared_ptr<const topo::AsGraph> DeltaRoutingTable::build_masked() const {
  auto g = std::make_shared<topo::AsGraph>(base_->num_ases());
  for (std::size_t i = 0; i < base_->num_ases(); ++i) {
    const AsId a(static_cast<std::uint32_t>(i));
    g->info(a) = base_->info(a);
    for (const auto& nb : base_->neighbors(a)) {
      if (!(a < nb.as)) continue;  // visit each adjacency once
      if (session_disabled(a, nb.as)) continue;
      switch (nb.rel) {
        case topo::Rel::Customer:  // nb is a's customer -> a provides transit
          g->add_provider_customer(a, nb.as);
          break;
        case topo::Rel::Provider:
          g->add_provider_customer(nb.as, a);
          break;
        case topo::Rel::Peer:
          g->add_peering(a, nb.as);
          break;
      }
    }
  }
  return g;
}

RouteStore DeltaRoutingTable::rebuild_full(AsId dest) const {
  if (withdrawn(dest)) {
    // A withdrawn prefix has no converged state anywhere: best invalid at
    // every AS (including the origin — the prefix, not the AS, is gone),
    // every RIB empty, every path empty.
    return RouteStore(*current_,
                      DestRoutes(dest, std::vector<Route>(current_->num_ases())));
  }
  return RouteStore(*current_, dest);
}

bool DeltaRoutingTable::consume_stale(std::size_t idx) {
  if (stale_next_ != dests_[idx]) return false;
  // Planted-staleness control: "forget" this recompute/patch, keep the
  // stale segment published. differential_check / the churn harness must
  // catch the divergence.
  stale_next_ = AsId::invalid();
  return true;
}

void DeltaRoutingTable::republish(std::size_t idx) {
  if (consume_stale(idx)) return;
  segments_[idx] = std::make_shared<const RouteSegment>(
      RouteSegment{current_, rebuild_full(dests_[idx]), epoch_});
}

void DeltaRoutingTable::patch(std::size_t idx) {
  if (consume_stale(idx)) return;
  // The old best assignment is still the fixed point on the new graph (the
  // caller proved it); every view is a pure function of (graph, assignment),
  // so re-derive them without running the decision process.
  const RouteStore& old = segments_[idx]->store;
  std::vector<Route> bests(old.all_best().begin(), old.all_best().end());
  segments_[idx] = std::make_shared<const RouteSegment>(RouteSegment{
      current_,
      RouteStore(*current_, DestRoutes(dests_[idx], std::move(bests))),
      epoch_});
}

bool DeltaRoutingTable::would_offer(const RouteSegment& seg, AsId importer,
                                    AsId exporter) const {
  const auto rel = base_->rel(importer, exporter);  // exporter, to importer
  MIFO_ASSERT(rel.has_value());  // session events require base adjacency
  const Route& offer = seg.store.best(exporter);
  if (!offer.valid()) return false;
  if (!may_export(offer.cls, topo::reverse(*rel))) return false;
  // Old-tree poisoning is decisive: if the row is poisoned both ways the
  // tree cannot change, so old-tree and new-tree poisoning coincide.
  return !seg.store.on_best_path(importer, exporter);
}

bool DeltaRoutingTable::would_prefer(const RouteSegment& seg, AsId importer,
                                     AsId exporter) const {
  if (!would_offer(seg, importer, exporter)) return false;
  const auto rel = base_->rel(importer, exporter);
  const Route cand{
      classify(*rel),
      static_cast<std::uint16_t>(seg.store.best(exporter).path_len + 1),
      exporter};
  return cand.better_than(seg.store.best(importer));
}

DeltaStats DeltaRoutingTable::apply(const RouteEvent& ev) {
  DeltaStats st;
  st.destinations = dests_.size();
  st.epoch = epoch_;

  switch (ev.kind) {
    case RouteEvent::Kind::Withdraw:
    case RouteEvent::Kind::Reannounce: {
      const bool is_withdraw = ev.kind == RouteEvent::Kind::Withdraw;
      const std::size_t idx = index_of(ev.a);
      if (idx >= dests_.size() || withdrawn(ev.a) == is_withdraw) break;
      if (is_withdraw) {
        withdrawn_.push_back(ev.a);
      } else {
        withdrawn_.erase(
            std::find(withdrawn_.begin(), withdrawn_.end(), ev.a));
      }
      st.applied = true;
      st.epoch = ++epoch_;
      // Per-destination independence: prefix churn affects exactly the
      // origin's own destination state.
      st.recomputed = 1;
      republish(idx);
      break;
    }

    case RouteEvent::Kind::SessionDown:
    case RouteEvent::Kind::SessionUp: {
      const bool is_down = ev.kind == RouteEvent::Kind::SessionDown;
      if (ev.a == ev.b || !ev.a.valid() || !ev.b.valid()) break;
      if (!base_->adjacent(ev.a, ev.b)) break;
      if (session_disabled(ev.a, ev.b) == is_down) break;
      if (is_down) {
        disabled_.push_back(norm_pair(ev.a, ev.b));
      } else {
        disabled_.erase(std::find(disabled_.begin(), disabled_.end(),
                                  norm_pair(ev.a, ev.b)));
      }
      st.applied = true;
      st.epoch = ++epoch_;
      current_ = build_masked();
      for (std::size_t i = 0; i < dests_.size(); ++i) {
        const RouteSegment* seg = segments_[i].get();
        bool recompute;
        bool row_change;
        if (is_down) {
          // The assignment changes iff the edge is in the best tree. A
          // non-tree edge only carried candidates nobody elected — but a
          // RIB row across it (either direction) still disappears, which
          // is a view patch. A stale segment whose graph predates the
          // session answers nullopt — correct, since the matching
          // SessionUp left it unaffected.
          recompute = seg->store.best(ev.a).next_hop == ev.b ||
                      seg->store.best(ev.b).next_hop == ev.a;
          row_change = recompute ||
                       seg->store.rib_from(ev.a, ev.b).has_value() ||
                       seg->store.rib_from(ev.b, ev.a).has_value();
        } else {
          // The new edge creates candidates only at its endpoints; if
          // neither endpoint prefers its candidate the assignment is the
          // old one, and a row merely appears where the session offers.
          recompute = would_prefer(*seg, ev.a, ev.b) ||
                      would_prefer(*seg, ev.b, ev.a);
          row_change = recompute || would_offer(*seg, ev.a, ev.b) ||
                       would_offer(*seg, ev.b, ev.a);
        }
        if (recompute) {
          ++st.recomputed;
          republish(i);
        } else if (row_change) {
          ++st.patched;
          patch(i);
        }
      }
      break;
    }
  }

  st.unchanged = st.destinations - st.recomputed - st.patched;
  return st;
}

std::vector<AsId> DeltaRoutingTable::differential_check() const {
  std::vector<AsId> mismatched;
  for (std::size_t i = 0; i < dests_.size(); ++i) {
    const RouteStore fresh = rebuild_full(dests_[i]);
    if (!stores_identical(segments_[i]->store, fresh)) {
      mismatched.push_back(dests_[i]);
    }
  }
  return mismatched;
}

}  // namespace mifo::bgp
