// Metrics registry: named, label-tagged counters, gauges and histograms.
//
// Accumulation is sharded: every producer (a FluidSim arm on a
// parallel_for thread, a dp::Network event loop, a bench thread) owns one
// Shard and increments dense per-shard slots with no synchronization —
// safe as long as a shard has a single writer. Registration and shard
// creation lock, because bench::run_arms arms register concurrently.
// Aggregation happens only at snapshot() time, after producers quiesce
// (benches snapshot after the arms join), by summing shards through
// common/stats (RunningStats/Histogram merge).
//
// Metric identity is (name, labels); registering the same pair twice
// returns the same id, so independent components can share a family.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace mifo::obs {

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

[[nodiscard]] constexpr const char* to_string(MetricKind k) {
  switch (k) {
    case MetricKind::Counter:
      return "counter";
    case MetricKind::Gauge:
      return "gauge";
    case MetricKind::Histogram:
      return "histogram";
  }
  return "?";
}

/// Dense handle into every shard's slot array.
using MetricId = std::uint32_t;

/// One aggregated scalar in a snapshot.
struct SnapshotEntry {
  std::string name;
  std::string labels;  ///< pre-joined "k=v,k=v" (may be empty)
  MetricKind kind = MetricKind::Counter;
  double value = 0.0;
};

/// One aggregated histogram in a snapshot.
struct SnapshotHistogram {
  std::string name;
  std::string labels;
  Histogram hist;
};

struct Snapshot {
  std::vector<SnapshotEntry> scalars;
  std::vector<SnapshotHistogram> histograms;

  /// First scalar matching (name, labels), or nullptr.
  [[nodiscard]] const SnapshotEntry* find(const std::string& name,
                                          const std::string& labels = {}) const;
  [[nodiscard]] double value_or(const std::string& name, double fallback,
                                const std::string& labels = {}) const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Single-writer accumulator. add()/observe()/set() are unsynchronized
  /// and O(1) into dense arrays; never share one shard between threads.
  class Shard {
   public:
    void add(MetricId id, double delta = 1.0) { slot(id) += delta; }
    void set(MetricId id, double value) { slot(id) = value; }
    void observe(MetricId id, double sample);
    /// Replace the slot's histogram with `h` (the histogram analogue of
    /// set(): idempotent, so re-publishing a still-growing worker-local
    /// histogram never double-counts). Binning must match.
    void set_histogram(MetricId id, const Histogram& h);

   private:
    friend class Registry;
    explicit Shard(Registry& owner) : owner_(&owner) {}
    /// Syncs local arrays with metrics registered after this shard was
    /// created (takes the registry mutex; amortized away on the hot path).
    void grow_to_fit();
    double& slot(MetricId id) {
      if (id >= scalars_.size()) grow_to_fit();
      return scalars_[id];
    }

    Registry* owner_;
    std::vector<double> scalars_;           ///< indexed by MetricId
    std::vector<std::int32_t> hist_index_;  ///< MetricId -> hists_ index, -1
    std::vector<Histogram> hists_;
  };

  /// Register (or look up) a metric family member. Thread-safe.
  MetricId counter(std::string name, std::string labels = {});
  MetricId gauge(std::string name, std::string labels = {});
  /// Histogram over ascending bucket bounds (common/stats.hpp Histogram):
  /// bin i covers [bounds[i], bounds[i+1]).
  MetricId histogram(std::string name, std::vector<double> bounds,
                     std::string labels = {});

  /// Create a new shard; the reference stays valid for the registry's
  /// lifetime. Thread-safe (producers can register themselves lazily).
  Shard& create_shard();
  /// The shard `publisher` publishes into under `labels`: created by the
  /// first call, returned again by every later one. A publisher that writes
  /// only through set()/set_histogram() therefore counts exactly once per
  /// snapshot however often it re-publishes, while distinct publishers or
  /// labels still get distinct shards. `publisher` is a key, never read; a
  /// later object at the same address would take over the shard.
  /// Thread-safe.
  Shard& publish_shard(const void* publisher, const std::string& labels);

  /// Sum every shard into one view. Call after producers quiesce; counters
  /// sum, gauges sum (producers own disjoint gauges — use one shard per
  /// logical gauge writer), histogram bins sum.
  [[nodiscard]] Snapshot snapshot() const;

 private:
  struct MetricDef {
    std::string name;
    std::string labels;
    MetricKind kind;
    std::vector<double> hist_bounds;  ///< Histogram kind only
  };
  struct PublishSlot {
    const void* publisher;
    std::string labels;
    Shard* shard;
  };

  MetricId intern(std::string name, std::string labels, MetricKind kind,
                  std::vector<double> bounds = {});

  mutable std::mutex mutex_;
  std::vector<MetricDef> defs_;
  /// deque: stable element addresses as shards are added.
  std::deque<Shard> shards_;
  std::vector<PublishSlot> publish_slots_;
};

}  // namespace mifo::obs
