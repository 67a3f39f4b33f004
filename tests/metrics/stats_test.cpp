#include "metrics/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "metrics/percentile.h"

namespace tempriv::metrics {
namespace {

TEST(StreamingStats, EmptyIsAllZero) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(StreamingStats, SingleValue) {
  StreamingStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(StreamingStats, MatchesDirectComputation) {
  const std::vector<double> xs{1.5, -2.0, 3.25, 0.0, 7.75, -1.25};
  StreamingStats s;
  double sum = 0.0;
  for (double x : xs) {
    s.add(x);
    sum += x;
  }
  const double mean = sum / xs.size();
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), ss / xs.size(), 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(ss / xs.size()), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), -2.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.75);
}

TEST(StreamingStats, IsNumericallyStableForLargeOffsets) {
  // Classic catastrophic-cancellation case: huge mean, tiny variance.
  StreamingStats s;
  const double offset = 1e9;
  for (int i = 0; i < 1000; ++i) s.add(offset + (i % 2 == 0 ? 0.5 : -0.5));
  EXPECT_NEAR(s.variance(), 0.25, 1e-6);
}

TEST(StreamingStats, MergeEqualsSequential) {
  StreamingStats a;
  StreamingStats b;
  StreamingStats all;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0;
    (i < 40 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StreamingStats, MergeWithEmptySides) {
  StreamingStats a;
  StreamingStats empty;
  a.add(1.0);
  a.add(3.0);
  StreamingStats a_copy = a;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a_copy);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(MseAccumulator, ComputesPaperMetric) {
  // MSE = Σ (x̂ − x)² / m, §2.1.
  MseAccumulator acc;
  acc.add(/*estimate=*/10.0, /*truth=*/7.0);   // err 3 -> 9
  acc.add(/*estimate=*/5.0, /*truth=*/9.0);    // err -4 -> 16
  acc.add(/*estimate=*/1.0, /*truth=*/1.0);    // err 0
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_NEAR(acc.mse(), (9.0 + 16.0 + 0.0) / 3.0, 1e-12);
  EXPECT_NEAR(acc.bias(), (3.0 - 4.0 + 0.0) / 3.0, 1e-12);
}

TEST(MseAccumulator, PerfectEstimatorHasZeroMse) {
  MseAccumulator acc;
  for (int i = 0; i < 10; ++i) acc.add(i, i);
  EXPECT_DOUBLE_EQ(acc.mse(), 0.0);
  EXPECT_DOUBLE_EQ(acc.bias(), 0.0);
}

TEST(Percentile, NearestRankDefinition) {
  const std::vector<double> xs{5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.2), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.9), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
}

TEST(Percentile, ValidatesInput) {
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, -0.1), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 1.1), std::invalid_argument);
}

}  // namespace
}  // namespace tempriv::metrics
