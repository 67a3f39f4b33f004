#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace tempriv::metrics {

/// Numerically-stable streaming moments (Welford's algorithm): mean,
/// variance, min, max, count. O(1) memory; suitable for million-packet runs.
class StreamingStats {
 public:
  void add(double x) noexcept;

  /// Merges another accumulator (parallel-friendly Chan et al. update).
  void merge(const StreamingStats& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double mean() const noexcept { return count_ ? mean_ : 0.0; }
  /// Population variance (n denominator); 0 for fewer than 2 samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }
  /// Raw Welford M2 (sum of squared deviations from the mean). Exposed so
  /// accumulators can be serialized bit-exactly — variance() divides by n
  /// and would not round-trip.
  double sum_squared_deviations() const noexcept { return count_ ? m2_ : 0.0; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Mean squared error accumulator: the paper's privacy metric
/// MSE = Σ (x̂ᵢ − xᵢ)² / m  (§2.1). Higher MSE = better temporal privacy.
class MseAccumulator {
 public:
  void add(double estimate, double truth) noexcept {
    const double err = estimate - truth;
    errors_.add(err * err);
    signed_errors_.add(err);
  }

  std::uint64_t count() const noexcept { return errors_.count(); }
  double mse() const noexcept { return errors_.mean(); }
  /// Mean signed error — exposes estimator bias (adaptive vs baseline).
  double bias() const noexcept { return signed_errors_.mean(); }

 private:
  StreamingStats errors_;
  StreamingStats signed_errors_;
};

}  // namespace tempriv::metrics
