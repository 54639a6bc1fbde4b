#include "sim/maxmin.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/contracts.hpp"

namespace mifo::sim {

namespace {

constexpr std::uint32_t kClassBit = 0x80000000u;
constexpr std::uint32_t kNone = 0xffffffffu;
constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

std::span<const double> max_min_rates(const MaxMinInput& in,
                                      MaxMinWorkspace& ws) {
  const std::size_t nf = in.flow_links.size();
  ws.rates.assign(nf, 0.0);
  if (nf == 0) return ws.rates;
  const std::size_t nl =
      in.num_links != 0 ? in.num_links : in.link_capacity.size();

  ws.frozen.assign(nf, 0);
  if (ws.link_epoch.size() < nl) {
    ws.link_epoch.resize(nl, 0);
    ws.local_id.resize(nl);
  }
  if (++ws.epoch == 0) {
    // Epoch counter wrapped: stamps from ~4G calls ago could alias the new
    // epoch, so pay one full clear and restart.
    std::fill(ws.link_epoch.begin(), ws.link_epoch.end(), 0u);
    ws.epoch = 1;
  }
  const std::uint32_t epoch = ws.epoch;
  ws.capacity.clear();
  ws.count.clear();
  ws.last_flow.clear();
  ws.path_begin.clear();
  ws.path_links.clear();
  ws.path_begin.push_back(0);

  // Compact touched links into first-seen local ids and build the
  // deduplicated path CSR. A path may cross the same link at most once per
  // direction by construction; de-duplicate defensively (last_flow) so
  // capacity is not double-charged.
  for (std::size_t f = 0; f < nf; ++f) {
    const std::uint32_t flow_stamp = static_cast<std::uint32_t>(f) + 1;
    for (const std::uint32_t l : in.flow_links[f]) {
      MIFO_EXPECTS(l < nl && l < in.link_capacity.size());
      if (ws.link_epoch[l] != epoch) {
        ws.link_epoch[l] = epoch;
        ws.local_id[l] = static_cast<std::uint32_t>(ws.capacity.size());
        ws.capacity.push_back(in.link_capacity[l]);
        ws.count.push_back(0);
        ws.last_flow.push_back(0);
      }
      const std::uint32_t idx = ws.local_id[l];
      if (ws.last_flow[idx] == flow_stamp) continue;  // duplicate in path
      ws.last_flow[idx] = flow_stamp;
      ws.path_links.push_back(idx);
      ++ws.count[idx];
    }
    ws.path_begin.push_back(static_cast<std::uint32_t>(ws.path_links.size()));
  }
  const std::size_t n_used = ws.capacity.size();
  MIFO_EXPECTS(n_used < kClassBit);  // row ids keep kClassBit free

  // Invert the path CSR into a flows-per-link CSR.
  ws.flows_begin.resize(n_used);
  ws.flows_cursor.resize(n_used);
  std::uint32_t cum = 0;
  for (std::size_t l = 0; l < n_used; ++l) {
    ws.flows_begin[l] = cum;
    ws.flows_cursor[l] = cum;
    cum += ws.count[l];
  }
  ws.flow_of.resize(cum);
  for (std::size_t f = 0; f < nf; ++f) {
    for (std::uint32_t p = ws.path_begin[f]; p < ws.path_begin[f + 1]; ++p) {
      ws.flow_of[ws.flows_cursor[ws.path_links[p]]++] =
          static_cast<std::uint32_t>(f);
    }
  }

  // The table: one row per link crossed by two or more flows (row id = its
  // local id), and one row per distinct capacity (bit pattern) among the
  // single-flow links (row id = class id | kClassBit). A class keeps its
  // members in first-seen order, chained through next_member; it is found
  // through an open-addressing map keyed by the capacity's bits.
  const std::size_t slots = std::bit_ceil(2 * n_used);
  ws.class_slot.assign(slots, kNone);
  ws.class_key.resize(slots);
  ws.next_member.resize(n_used);
  ws.class_first.clear();
  ws.class_last.clear();
  ws.table.clear();
  for (std::uint32_t l = 0; l < n_used; ++l) {
    if (ws.count[l] != 1) {
      ws.table.push_back({ws.capacity[l], ws.count[l], l});
      continue;
    }
    const auto bits = std::bit_cast<std::uint64_t>(ws.capacity[l]);
    std::size_t s = (bits * 0x9E3779B97F4A7C15ull) >> 32 & (slots - 1);
    while (ws.class_slot[s] != kNone && ws.class_key[s] != bits) {
      s = (s + 1) & (slots - 1);
    }
    ws.next_member[l] = kNone;
    if (ws.class_slot[s] == kNone) {
      const auto c = static_cast<std::uint32_t>(ws.class_first.size());
      ws.class_slot[s] = c;
      ws.class_key[s] = bits;
      ws.class_first.push_back(l);
      ws.class_last.push_back(l);
      ws.table.push_back({ws.capacity[l], 1, c | kClassBit});
    } else {
      const std::uint32_t c = ws.class_slot[s];
      ws.next_member[ws.class_last[c]] = l;
      ws.class_last[c] = l;
    }
  }

  const double cap_level = in.flow_cap > 0.0 ? in.flow_cap : kInf;
  std::size_t unfrozen = nf;
  double level = 0.0;
  constexpr double kEps = 1e-9;

  // Flows with no links saturate immediately at the cap.
  for (std::size_t f = 0; f < nf; ++f) {
    if (ws.path_begin[f] == ws.path_begin[f + 1]) {
      ws.rates[f] = in.flow_cap > 0.0 ? in.flow_cap : 0.0;
      ws.frozen[f] = 1;
      --unfrozen;
    }
  }

  auto freeze_flow = [&](std::uint32_t f) {
    if (ws.frozen[f]) return;
    ws.frozen[f] = 1;
    ws.rates[f] = level;
    --unfrozen;
    for (std::uint32_t p = ws.path_begin[f]; p < ws.path_begin[f + 1]; ++p) {
      --ws.count[ws.path_links[p]];
    }
  };
  // A single-flow link's one flow.
  auto solo_flow = [&](std::uint32_t l) { return ws.last_flow[l] - 1; };
  // Freezes the flows of a row's links: every live member of a class, every
  // flow crossing a link.
  auto freeze_row = [&](std::uint32_t id) {
    if ((id & kClassBit) != 0) {
      for (std::uint32_t m = ws.class_first[id & ~kClassBit]; m != kNone;
           m = ws.next_member[m]) {
        freeze_flow(solo_flow(m));
      }
      return;
    }
    for (std::uint32_t c = ws.flows_begin[id]; c < ws.flows_cursor[id]; ++c) {
      freeze_flow(ws.flow_of[c]);
    }
  };
  // A row's unfrozen-flow count, 1 for a class with a live member. Advances
  // the class's first member past members whose flow froze.
  auto live_count = [&](std::uint32_t id) -> std::uint32_t {
    if ((id & kClassBit) == 0) return ws.count[id];
    std::uint32_t& m = ws.class_first[id & ~kClassBit];
    while (m != kNone && ws.frozen[solo_flow(m)]) m = ws.next_member[m];
    return m != kNone ? 1 : 0;
  };

  // Pass 2: refresh each row's count, drop rows without unfrozen flows
  // (stably) and return the next increment, min(cap_level - level,
  // rem / count).
  auto min_quotient = [&] {
    double d = cap_level - level;
    std::size_t w = 0;
    for (std::size_t i = 0; i < ws.table.size(); ++i) {
      MaxMinWorkspace::Row r = ws.table[i];
      r.count = live_count(r.id);
      if (r.count == 0) continue;
      ws.table[w++] = r;
      d = std::min(d, r.rem / r.count);
    }
    ws.table.resize(w);
    return d;
  };

  // Numerical backstop: freeze the flows of the first-seen link with the
  // least remaining capacity (a class competes as its first live member,
  // and gives up only that member's flow); false if no link qualifies.
  auto freeze_tightest = [&] {
    const MaxMinWorkspace::Row* tightest = nullptr;
    std::uint32_t first_seen = kNone;
    for (const MaxMinWorkspace::Row& r : ws.table) {
      if (!(r.rem < kInf)) continue;
      const std::uint32_t link = (r.id & kClassBit) != 0
                                     ? ws.class_first[r.id & ~kClassBit]
                                     : r.id;
      if (tightest == nullptr || r.rem < tightest->rem ||
          (r.rem == tightest->rem && link < first_seen)) {
        tightest = &r;
        first_seen = link;
      }
    }
    if (tightest == nullptr) return false;
    if ((tightest->id & kClassBit) != 0) {
      freeze_flow(solo_flow(first_seen));
    } else {
      freeze_row(tightest->id);
    }
    return true;
  };

  double delta = min_quotient();
  while (unfrozen > 0) {
    MIFO_ASSERT(delta >= 0.0);
    level += delta;
    // The cap binds: everyone still rising freezes here. Nothing reads
    // remaining capacities after this round, so it charges none.
    if (level >= cap_level - kEps) {
      for (std::size_t f = 0; f < nf; ++f) {
        if (ws.frozen[f] == 0) ws.rates[f] = level;
      }
      break;
    }
    // Pass 1: charge the increment and record saturated rows.
    ws.saturated.clear();
    for (MaxMinWorkspace::Row& r : ws.table) {
      r.rem -= delta * r.count;
      if (r.rem <= 1e-6) ws.saturated.push_back(r.id);
    }
    for (const std::uint32_t id : ws.saturated) freeze_row(id);
    if (ws.saturated.empty() && !freeze_tightest()) break;
    delta = min_quotient();
  }

  return ws.rates;
}

std::vector<double> max_min_rates(const MaxMinInput& in) {
  MaxMinWorkspace ws;
  const auto rates = max_min_rates(in, ws);
  return {rates.begin(), rates.end()};
}

IncrementalMaxMin::IncrementalMaxMin(std::vector<double> link_capacity,
                                     double flow_cap)
    : flow_cap_(flow_cap),
      capacity_(std::move(link_capacity)),
      flows_on_(capacity_.size()),
      link_mark_(capacity_.size(), 0) {
  for (const double c : capacity_) MIFO_EXPECTS(c > 0.0);
}

bool IncrementalMaxMin::constrained(std::uint32_t l) const {
  const std::size_t n = flows_on_[l].size();
  if (n == 0) return false;
  if (flow_cap_ <= 0.0) return true;
  // n capped flows can demand at most n * flow_cap: while that fits, the
  // link can never be the binding constraint nor saturate before the cap
  // round, so excluding it from the instance leaves every rate unchanged.
  return static_cast<double>(n) * flow_cap_ > capacity_[l];
}

void IncrementalMaxMin::link_insert(Slot s) {
  Flow& f = flows_[s];
  f.pos.resize(f.links.size());
  for (std::size_t i = 0; i < f.links.size(); ++i) {
    auto& on = flows_on_[f.links[i]];
    f.pos[i] = static_cast<std::uint32_t>(on.size());
    on.push_back(Incidence{s, static_cast<std::uint32_t>(i)});
  }
}

void IncrementalMaxMin::link_remove(Slot s) {
  Flow& f = flows_[s];
  for (std::size_t i = 0; i < f.links.size(); ++i) {
    auto& on = flows_on_[f.links[i]];
    const std::uint32_t p = f.pos[i];
    on[p] = on.back();
    on.pop_back();
    if (p < on.size()) flows_[on[p].slot].pos[on[p].ord] = p;
  }
}

void IncrementalMaxMin::next_epoch() {
  if (++mark_epoch_ == 0) {
    // Epoch counter wrapped: stamps from ~4G events ago could alias the new
    // epoch, so pay one full clear and restart.
    std::fill(flow_mark_.begin(), flow_mark_.end(), 0u);
    std::fill(link_mark_.begin(), link_mark_.end(), 0u);
    mark_epoch_ = 1;
  }
}

void IncrementalMaxMin::gather_component(Slot seed, std::vector<Slot>& out) {
  if (flow_mark_[seed] == mark_epoch_) return;
  flow_mark_[seed] = mark_epoch_;
  const std::size_t head0 = out.size();
  out.push_back(seed);
  for (std::size_t head = head0; head < out.size(); ++head) {
    for (const std::uint32_t l : flows_[out[head]].links) {
      if (link_mark_[l] == mark_epoch_) continue;
      link_mark_[l] = mark_epoch_;
      if (!constrained(l)) continue;
      for (const Incidence& inc : flows_on_[l]) {
        if (flow_mark_[inc.slot] == mark_epoch_) continue;
        flow_mark_[inc.slot] = mark_epoch_;
        out.push_back(inc.slot);
      }
    }
  }
}

std::span<const double> IncrementalMaxMin::canonical_solve(
    std::vector<Slot>& members) {
  // The canonical instance fixes everything floating-point order depends
  // on: member order (admission sequence), per-path link order (original
  // path order, constrained links only), and the shared capacity universe.
  // oracle_rates builds the very same instances, so rates match bitwise.
  std::sort(members.begin(), members.end(), [this](Slot a, Slot b) {
    return flows_[a].seq < flows_[b].seq;
  });
  sub_links_.clear();
  sub_begin_.clear();
  sub_views_.clear();
  sub_begin_.push_back(0);
  for (const Slot s : members) {
    for (const std::uint32_t l : flows_[s].links) {
      if (constrained(l)) sub_links_.push_back(l);
    }
    sub_begin_.push_back(static_cast<std::uint32_t>(sub_links_.size()));
  }
  sub_views_.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    sub_views_.emplace_back(sub_links_.data() + sub_begin_[i],
                            sub_begin_[i + 1] - sub_begin_[i]);
  }
  MaxMinInput in;
  in.flow_links = sub_views_;
  in.link_capacity = capacity_;
  in.flow_cap = flow_cap_;
  in.num_links = capacity_.size();
  return max_min_rates(in, ws_);
}

void IncrementalMaxMin::solve_members(std::vector<Slot>& members) {
  const std::span<const double> rates = canonical_solve(members);
  std::uint64_t path_len = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    Flow& f = flows_[members[i]];
    path_len += f.links.size();
    if (rates[i] != f.rate) {
      changes_.push_back(RateChange{members[i], f.rate, rates[i]});
      f.rate = rates[i];
    }
  }
  ++stats_.components_solved;
  stats_.flows_resolved += members.size();
  stats_.incidences_resolved += members.size() + path_len;
  stats_.peak_component =
      std::max<std::uint64_t>(stats_.peak_component, members.size());
}

void IncrementalMaxMin::note_event() {
  ++stats_.events;
  stats_.full_incidences += active_ + total_incidences_;
}

IncrementalMaxMin::Slot IncrementalMaxMin::add_flow(
    std::span<const std::uint32_t> links) {
  Slot s = kInvalidSlot;
  if (!free_.empty()) {
    s = free_.back();
    free_.pop_back();
  } else {
    s = static_cast<Slot>(flows_.size());
    flows_.emplace_back();
    flow_mark_.push_back(0);
  }
  Flow& f = flows_[s];
  f.seq = next_seq_++;
  f.live = true;
  f.rate = 0.0;
  f.links.clear();
  for (const std::uint32_t l : links) {
    MIFO_EXPECTS(l < capacity_.size());
    if (std::find(f.links.begin(), f.links.end(), l) == f.links.end()) {
      f.links.push_back(l);
    }
  }
  link_insert(s);
  ++active_;
  total_incidences_ += f.links.size();

  changes_.clear();
  note_event();
  // An arrival only raises link counts, so constrained statuses only turn
  // on: the new flow's component (under post-insert statuses) contains
  // every flow whose rate can move.
  next_epoch();
  members_.clear();
  gather_component(s, members_);
  solve_members(members_);
  return s;
}

void IncrementalMaxMin::remove_flow(Slot s) {
  MIFO_EXPECTS(live(s));
  changes_.clear();
  // The departing flow's component before removal bounds the blast radius;
  // afterwards it may have split, so re-solve each remainder component.
  next_epoch();
  spill_.clear();
  gather_component(s, spill_);
  Flow& f = flows_[s];
  link_remove(s);
  total_incidences_ -= f.links.size();
  --active_;
  f.live = false;
  f.rate = 0.0;
  f.links.clear();
  f.pos.clear();
  note_event();
  next_epoch();
  for (const Slot m : spill_) {
    if (m == s || flow_mark_[m] == mark_epoch_) continue;
    members_.clear();
    gather_component(m, members_);
    solve_members(members_);
  }
  free_.push_back(s);
}

void IncrementalMaxMin::update_path(Slot s,
                                    std::span<const std::uint32_t> links) {
  MIFO_EXPECTS(live(s));
  tmp_links_.clear();
  for (const std::uint32_t l : links) {
    MIFO_EXPECTS(l < capacity_.size());
    if (std::find(tmp_links_.begin(), tmp_links_.end(), l) ==
        tmp_links_.end()) {
      tmp_links_.push_back(l);
    }
  }
  changes_.clear();
  Flow& f = flows_[s];
  if (tmp_links_ == f.links) return;

  // Departure half: re-solve what the flow leaves behind…
  next_epoch();
  spill_.clear();
  gather_component(s, spill_);
  link_remove(s);
  total_incidences_ -= f.links.size();
  next_epoch();
  flow_mark_[s] = mark_epoch_;  // exclude s from the remainder decomposition
  for (const Slot m : spill_) {
    if (m == s || flow_mark_[m] == mark_epoch_) continue;
    members_.clear();
    gather_component(m, members_);
    solve_members(members_);
  }
  // …arrival half on the new path (same slot, same admission sequence, so
  // the canonical ordering is unchanged).
  f.links.assign(tmp_links_.begin(), tmp_links_.end());
  link_insert(s);
  total_incidences_ += f.links.size();
  note_event();
  next_epoch();
  members_.clear();
  gather_component(s, members_);
  solve_members(members_);
}

void IncrementalMaxMin::set_capacity(std::uint32_t link, double capacity) {
  MIFO_EXPECTS(link < capacity_.size());
  MIFO_EXPECTS(capacity > 0.0);
  changes_.clear();
  if (capacity_[link] == capacity) return;
  const bool was = constrained(link);
  capacity_[link] = capacity;
  if (flows_on_[link].empty()) return;
  note_event();
  if (!was && !constrained(link)) return;  // can still never bind
  // The link's own flows seed every affected component: a component can
  // only split or merge across `link`, so each resulting component holds a
  // flow that crosses it.
  seeds_.clear();
  for (const Incidence& inc : flows_on_[link]) seeds_.push_back(inc.slot);
  std::sort(seeds_.begin(), seeds_.end());
  next_epoch();
  for (const Slot m : seeds_) {
    if (flow_mark_[m] == mark_epoch_) continue;
    members_.clear();
    gather_component(m, members_);
    solve_members(members_);
  }
}

std::vector<double> IncrementalMaxMin::oracle_rates() {
  std::vector<double> out(flows_.size(), 0.0);
  std::vector<Slot> order;
  order.reserve(active_);
  for (Slot s = 0; s < flows_.size(); ++s) {
    if (flows_[s].live) order.push_back(s);
  }
  std::sort(order.begin(), order.end(), [this](Slot a, Slot b) {
    return flows_[a].seq < flows_[b].seq;
  });
  next_epoch();
  std::vector<Slot> members;
  for (const Slot s : order) {
    if (flow_mark_[s] == mark_epoch_) continue;
    members.clear();
    gather_component(s, members);
    const std::span<const double> rates = canonical_solve(members);
    for (std::size_t i = 0; i < members.size(); ++i) {
      out[members[i]] = rates[i];
    }
  }
  return out;
}

bool IncrementalMaxMin::check_differential() {
  const std::vector<double> oracle = oracle_rates();
  bool ok = true;
  for (Slot s = 0; s < flows_.size(); ++s) {
    const double expect = flows_[s].live ? flows_[s].rate : 0.0;
    if (oracle[s] != expect) {
      ok = false;
      break;
    }
  }
  ++stats_.differential_checks;
  if (!ok) ++stats_.differential_mismatches;
  return ok;
}

}  // namespace mifo::sim
