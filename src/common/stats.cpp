#include "common/stats.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/contracts.hpp"

namespace mifo {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::min() const {
  return n_ == 0 ? std::numeric_limits<double>::quiet_NaN() : min_;
}

double RunningStats::max() const {
  return n_ == 0 ? std::numeric_limits<double>::quiet_NaN() : max_;
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Cdf::add_all(const std::vector<double>& xs) {
  samples_.insert(samples_.end(), xs.begin(), xs.end());
  sorted_ = false;
}

void Cdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Cdf::at(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double Cdf::quantile(double p) const {
  MIFO_EXPECTS(p >= 0.0 && p <= 1.0);
  MIFO_EXPECTS(!samples_.empty());
  ensure_sorted();
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(samples_.size() - 1) + 0.5);
  return samples_[std::min(idx, samples_.size() - 1)];
}

double Cdf::fraction_at_least(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::lower_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(samples_.end() - it) /
         static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>> Cdf::table(double lo, double hi,
                                                  std::size_t points) const {
  MIFO_EXPECTS(points >= 2);
  MIFO_EXPECTS(hi > lo);
  std::vector<std::pair<double, double>> rows;
  rows.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double x =
        lo + (hi - lo) * static_cast<double>(i) /
                 static_cast<double>(points - 1);
    rows.emplace_back(x, 100.0 * at(x));
  }
  return rows;
}

Histogram::Histogram(std::vector<double> edges) : edges_(std::move(edges)) {
  MIFO_EXPECTS(edges_.size() >= 2);
  for (std::size_t i = 1; i < edges_.size(); ++i) {
    MIFO_EXPECTS(edges_[i] > edges_[i - 1]);
  }
  counts_.assign(edges_.size() - 1, 0);
}

void Histogram::add(double x) {
  // First edge strictly greater than x; bin i covers [edges[i], edges[i+1]).
  long idx =
      std::upper_bound(edges_.begin(), edges_.end(), x) - edges_.begin() - 1;
  idx = std::clamp<long>(idx, 0, static_cast<long>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

std::uint64_t Histogram::bin_count(std::size_t i) const {
  MIFO_EXPECTS(i < counts_.size());
  return counts_[i];
}

double Histogram::bin_low(std::size_t i) const {
  MIFO_EXPECTS(i < counts_.size());
  return edges_[i];
}

double Histogram::bin_high(std::size_t i) const {
  MIFO_EXPECTS(i < counts_.size());
  return edges_[i + 1];
}

void Histogram::merge(const Histogram& other) {
  MIFO_EXPECTS(edges_ == other.edges_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

double Histogram::fraction(std::size_t i) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(bin_count(i)) / static_cast<double>(total_);
}

void IntCounter::add(std::uint64_t value) {
  if (value >= counts_.size()) counts_.resize(value + 1, 0);
  ++counts_[value];
  ++total_;
}

std::uint64_t IntCounter::count_of(std::uint64_t value) const {
  return value < counts_.size() ? counts_[value] : 0;
}

double IntCounter::fraction_of(std::uint64_t value) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count_of(value)) / static_cast<double>(total_);
}

double IntCounter::fraction_at_most(std::uint64_t value) const {
  if (total_ == 0) return 0.0;
  std::uint64_t acc = 0;
  for (std::uint64_t v = 0; v <= value && v < counts_.size(); ++v) {
    acc += counts_[v];
  }
  return static_cast<double>(acc) / static_cast<double>(total_);
}

std::uint64_t IntCounter::max_value() const {
  for (std::size_t i = counts_.size(); i > 0; --i) {
    if (counts_[i - 1] > 0) return i - 1;
  }
  return 0;
}

std::string format_table(const std::vector<std::string>& header,
                         const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> widths(header.size(), 0);
  for (std::size_t c = 0; c < header.size(); ++c) widths[c] = header[c].size();
  for (const auto& row : rows) {
    MIFO_EXPECTS(row.size() == header.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << cells[c];
      for (std::size_t pad = cells[c].size(); pad < widths[c] + 2; ++pad) {
        os << ' ';
      }
    }
    os << '\n';
  };
  emit(header);
  std::vector<std::string> rule;
  rule.reserve(header.size());
  for (auto w : widths) rule.emplace_back(std::string(w, '-'));
  emit(rule);
  for (const auto& row : rows) emit(row);
  return os.str();
}

}  // namespace mifo
