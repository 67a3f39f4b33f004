#include "metrics/stats.h"

#include <algorithm>
#include <cmath>

namespace tempriv::metrics {

void StreamingStats::add(double x) noexcept {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void StreamingStats::merge(const StreamingStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double StreamingStats::variance() const noexcept {
  return count_ >= 2 ? m2_ / static_cast<double>(count_) : 0.0;
}

double StreamingStats::stddev() const noexcept { return std::sqrt(variance()); }

}  // namespace tempriv::metrics
