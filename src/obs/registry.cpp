#include "obs/registry.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace mifo::obs {

const SnapshotEntry* Snapshot::find(const std::string& name,
                                    const std::string& labels) const {
  for (const auto& e : scalars) {
    if (e.name == name && e.labels == labels) return &e;
  }
  return nullptr;
}

double Snapshot::value_or(const std::string& name, double fallback,
                          const std::string& labels) const {
  const SnapshotEntry* e = find(name, labels);
  return e != nullptr ? e->value : fallback;
}

void Registry::Shard::observe(MetricId id, double sample) {
  if (id >= hist_index_.size()) grow_to_fit();
  const std::int32_t h = hist_index_[id];
  MIFO_EXPECTS(h >= 0);  // observe() on a non-histogram metric
  hists_[static_cast<std::size_t>(h)].add(sample);
}

void Registry::Shard::set_histogram(MetricId id, const Histogram& h) {
  if (id >= hist_index_.size()) grow_to_fit();
  const std::int32_t idx = hist_index_[id];
  MIFO_EXPECTS(idx >= 0);  // set_histogram() on a non-histogram metric
  Histogram& slot = hists_[static_cast<std::size_t>(idx)];
  MIFO_EXPECTS(slot.edges() == h.edges());
  slot = h;
}

void Registry::Shard::grow_to_fit() {
  std::lock_guard lock(owner_->mutex_);
  const std::size_t n = owner_->defs_.size();
  const std::size_t old = scalars_.size();
  scalars_.resize(n, 0.0);
  hist_index_.resize(n, -1);
  for (std::size_t i = old; i < n; ++i) {
    const MetricDef& d = owner_->defs_[i];
    if (d.kind != MetricKind::Histogram) continue;
    hist_index_[i] = static_cast<std::int32_t>(hists_.size());
    hists_.emplace_back(d.hist_bounds);
  }
}

MetricId Registry::intern(std::string name, std::string labels,
                          MetricKind kind, std::vector<double> bounds) {
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    if (defs_[i].name == name && defs_[i].labels == labels) {
      MIFO_EXPECTS(defs_[i].kind == kind);  // no kind-changing re-register
      return static_cast<MetricId>(i);
    }
  }
  MetricDef d;
  d.name = std::move(name);
  d.labels = std::move(labels);
  d.kind = kind;
  d.hist_bounds = std::move(bounds);
  defs_.push_back(std::move(d));
  return static_cast<MetricId>(defs_.size() - 1);
}

MetricId Registry::counter(std::string name, std::string labels) {
  return intern(std::move(name), std::move(labels), MetricKind::Counter);
}

MetricId Registry::gauge(std::string name, std::string labels) {
  return intern(std::move(name), std::move(labels), MetricKind::Gauge);
}

MetricId Registry::histogram(std::string name, std::vector<double> bounds,
                             std::string labels) {
  MIFO_EXPECTS(bounds.size() >= 2);
  return intern(std::move(name), std::move(labels), MetricKind::Histogram,
                std::move(bounds));
}

Registry::Shard& Registry::create_shard() {
  std::lock_guard lock(mutex_);
  shards_.push_back(Shard(*this));
  return shards_.back();
}

Registry::Shard& Registry::publish_shard(const void* publisher,
                                         const std::string& labels) {
  std::lock_guard lock(mutex_);
  for (const PublishSlot& slot : publish_slots_) {
    if (slot.publisher == publisher && slot.labels == labels) {
      return *slot.shard;
    }
  }
  shards_.push_back(Shard(*this));
  publish_slots_.push_back(PublishSlot{publisher, labels, &shards_.back()});
  return shards_.back();
}

Snapshot Registry::snapshot() const {
  std::lock_guard lock(mutex_);
  Snapshot snap;
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    const MetricDef& d = defs_[i];
    if (d.kind == MetricKind::Histogram) {
      SnapshotHistogram sh{d.name, d.labels, Histogram(d.hist_bounds)};
      for (const Shard& s : shards_) {
        if (i < s.hist_index_.size() && s.hist_index_[i] >= 0) {
          sh.hist.merge(s.hists_[static_cast<std::size_t>(s.hist_index_[i])]);
        }
      }
      snap.histograms.push_back(std::move(sh));
    } else {
      SnapshotEntry e;
      e.name = d.name;
      e.labels = d.labels;
      e.kind = d.kind;
      for (const Shard& s : shards_) {
        if (i < s.scalars_.size()) e.value += s.scalars_[i];
      }
      snap.scalars.push_back(std::move(e));
    }
  }
  return snap;
}

}  // namespace mifo::obs
