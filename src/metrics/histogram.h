#pragma once

#include <cstdint>
#include <vector>

namespace tempriv::metrics {

/// Fixed-width-bin histogram over [lo, hi) with under/overflow buckets.
/// Used for buffer-occupancy distributions (to compare against the Poisson
/// PMF that M/M/∞ analysis predicts) and for empirical entropy estimation.
class Histogram {
 public:
  /// Requires lo < hi and bins >= 1.
  Histogram(double lo, double hi, std::size_t bins);

  /// Rebuilds a histogram from previously serialized counts (the shard-merge
  /// path: per-shard artifacts store their bin counts, the merge tool
  /// reconstitutes each and combines them with merge()). `counts.size()` is
  /// the bin count.
  static Histogram from_counts(double lo, double hi,
                               std::vector<std::uint64_t> counts,
                               std::uint64_t underflow, std::uint64_t overflow);

  void add(double x) noexcept;

  /// Combines another histogram accumulated with the same binning, the
  /// parallel-reduction counterpart of StreamingStats::merge. Throws
  /// std::invalid_argument if the binning (lo, width, bin count) differs —
  /// counts from incompatible grids cannot be combined meaningfully.
  void merge(const Histogram& other);

  std::size_t bin_count() const noexcept { return counts_.size(); }
  std::uint64_t bin(std::size_t i) const { return counts_.at(i); }
  std::uint64_t underflow() const noexcept { return underflow_; }
  std::uint64_t overflow() const noexcept { return overflow_; }

  double bin_lower_edge(std::size_t i) const noexcept {
    return lo_ + static_cast<double>(i) * width_;
  }

 private:
  double lo_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
};

/// Counts of non-negative integer outcomes (buffer occupancy N(t) ∈ ℕ).
/// Grows on demand.
class IntegerHistogram {
 public:
  void add(std::uint64_t value);

  /// Adds `n` occurrences of `value` at once (deserialization of shard
  /// artifacts; equivalent to calling add(value) n times).
  void add_count(std::uint64_t value, std::uint64_t n);

  /// Adds another accumulator's counts (always compatible: the domain ℕ is
  /// shared and the storage grows on demand).
  void merge(const IntegerHistogram& other);

  std::uint64_t count(std::uint64_t value) const noexcept;
  std::uint64_t total() const noexcept { return total_; }
  std::uint64_t max_value() const noexcept;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Time-weighted integer occupancy tracker: records how long the tracked
/// quantity (e.g. buffer occupancy) spent at each level, which is the
/// stationary distribution a queueing model predicts.
class TimeWeightedOccupancy {
 public:
  /// Declare that the level changed to `level` at time `now`.
  void record(double now, std::uint64_t level);

  /// Close the observation window at time `now`.
  void finish(double now);

  double total_time() const noexcept { return total_time_; }
  double fraction_at(std::uint64_t level) const noexcept;
  double mean_level() const noexcept;
  std::uint64_t max_level() const noexcept;

 private:
  std::vector<double> time_at_level_;
  double total_time_ = 0.0;
  double last_change_ = 0.0;
  std::uint64_t current_level_ = 0;
  bool started_ = false;
};

}  // namespace tempriv::metrics
