// Streaming statistics, histograms and empirical CDFs used by the
// experiment harnesses to print the paper's tables/figures as text.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mifo {

/// Welford online mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return sum_; }

  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Empirical CDF over collected samples.
class Cdf {
 public:
  void add(double x) { samples_.push_back(x); }
  void add_all(const std::vector<double>& xs);

  [[nodiscard]] std::size_t count() const { return samples_.size(); }

  /// Fraction of samples <= x.
  [[nodiscard]] double at(double x) const;
  /// p-quantile, p in [0, 1].
  [[nodiscard]] double quantile(double p) const;
  /// Fraction of samples >= x (used for "X% of flows achieve Y Mbps").
  [[nodiscard]] double fraction_at_least(double x) const;

  /// Evenly spaced (x, CDF%) rows over [lo, hi] — matches the figures' axes.
  [[nodiscard]] std::vector<std::pair<double, double>> table(
      double lo, double hi, std::size_t points) const;

 private:
  void ensure_sorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// Fixed-bin histogram over caller-supplied ascending bucket edges, so
/// skewed populations (e.g. 10 ms–1 s recovery latencies) get resolution
/// where the mass is. Out-of-range samples clamp to the edge bins.
class Histogram {
 public:
  /// Bin i covers [edges[i], edges[i+1]). Needs at least two strictly
  /// ascending edges.
  explicit Histogram(std::vector<double> edges);

  void add(double x);
  [[nodiscard]] std::uint64_t bin_count(std::size_t i) const;
  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] double bin_low(std::size_t i) const;
  /// Exclusive upper edge of bin i (== bin_low(i + 1) for inner bins).
  [[nodiscard]] double bin_high(std::size_t i) const;
  [[nodiscard]] double fraction(std::size_t i) const;
  [[nodiscard]] double low() const { return edges_.front(); }
  [[nodiscard]] double high() const { return edges_.back(); }
  [[nodiscard]] const std::vector<double>& edges() const { return edges_; }

  /// Accumulate another histogram's counts; the binning must match.
  void merge(const Histogram& other);

 private:
  std::vector<double> edges_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Counts of small non-negative integers (e.g. path switches per flow).
class IntCounter {
 public:
  void add(std::uint64_t value);
  [[nodiscard]] std::uint64_t count_of(std::uint64_t value) const;
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] double fraction_of(std::uint64_t value) const;
  [[nodiscard]] double fraction_at_most(std::uint64_t value) const;
  [[nodiscard]] std::uint64_t max_value() const;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Render a simple fixed-width text table (used by benches to print the
/// paper's rows).
std::string format_table(const std::vector<std::string>& header,
                         const std::vector<std::vector<std::string>>& rows);

}  // namespace mifo
