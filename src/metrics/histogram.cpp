#include "metrics/histogram.h"

#include <cmath>
#include <stdexcept>

namespace tempriv::metrics {

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo) {
  if (!(lo < hi)) throw std::invalid_argument("Histogram: requires lo < hi");
  if (bins == 0) throw std::invalid_argument("Histogram: requires bins >= 1");
  width_ = (hi - lo) / static_cast<double>(bins);
  counts_.resize(bins, 0);
}

Histogram Histogram::from_counts(double lo, double hi,
                                 std::vector<std::uint64_t> counts,
                                 std::uint64_t underflow,
                                 std::uint64_t overflow) {
  Histogram h(lo, hi, counts.empty() ? 1 : counts.size());
  if (counts.empty()) {
    throw std::invalid_argument("Histogram::from_counts: empty counts");
  }
  h.counts_ = std::move(counts);
  h.underflow_ = underflow;
  h.overflow_ = overflow;
  return h;
}

void Histogram::add(double x) noexcept {
  if (x < lo_) {
    ++underflow_;
    return;
  }
  const auto idx = static_cast<std::size_t>((x - lo_) / width_);
  if (idx >= counts_.size()) {
    ++overflow_;
    return;
  }
  ++counts_[idx];
}

void Histogram::merge(const Histogram& other) {
  if (lo_ != other.lo_ || width_ != other.width_ ||
      counts_.size() != other.counts_.size()) {
    throw std::invalid_argument("Histogram::merge: incompatible binning");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
}

void IntegerHistogram::add(std::uint64_t value) {
  if (value >= counts_.size()) counts_.resize(value + 1, 0);
  ++counts_[value];
  ++total_;
}

void IntegerHistogram::add_count(std::uint64_t value, std::uint64_t n) {
  if (n == 0) return;
  if (value >= counts_.size()) counts_.resize(value + 1, 0);
  counts_[value] += n;
  total_ += n;
}

void IntegerHistogram::merge(const IntegerHistogram& other) {
  if (other.counts_.size() > counts_.size()) {
    counts_.resize(other.counts_.size(), 0);
  }
  for (std::size_t i = 0; i < other.counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

std::uint64_t IntegerHistogram::count(std::uint64_t value) const noexcept {
  return value < counts_.size() ? counts_[value] : 0;
}

std::uint64_t IntegerHistogram::max_value() const noexcept {
  return counts_.empty() ? 0 : counts_.size() - 1;
}

void TimeWeightedOccupancy::record(double now, std::uint64_t level) {
  if (started_) {
    const double elapsed = now - last_change_;
    if (current_level_ >= time_at_level_.size()) {
      time_at_level_.resize(current_level_ + 1, 0.0);
    }
    time_at_level_[current_level_] += elapsed;
    total_time_ += elapsed;
  }
  started_ = true;
  last_change_ = now;
  current_level_ = level;
}

void TimeWeightedOccupancy::finish(double now) { record(now, current_level_); }

double TimeWeightedOccupancy::fraction_at(std::uint64_t level) const noexcept {
  if (total_time_ <= 0.0 || level >= time_at_level_.size()) return 0.0;
  return time_at_level_[level] / total_time_;
}

double TimeWeightedOccupancy::mean_level() const noexcept {
  if (total_time_ <= 0.0) return 0.0;
  double sum = 0.0;
  for (std::size_t v = 0; v < time_at_level_.size(); ++v) {
    sum += static_cast<double>(v) * time_at_level_[v];
  }
  return sum / total_time_;
}

std::uint64_t TimeWeightedOccupancy::max_level() const noexcept {
  for (std::size_t v = time_at_level_.size(); v-- > 0;) {
    if (time_at_level_[v] > 0.0) return v;
  }
  return 0;
}

}  // namespace tempriv::metrics
