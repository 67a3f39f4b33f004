#include "sim/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "metrics/stats.h"
#include "sim/erlang_draw.h"

namespace tempriv::sim {
namespace {

constexpr int kSamples = 200000;

TEST(RandomStream, Uniform01InHalfOpenUnitInterval) {
  RandomStream rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RandomStream, Uniform01OpenLeftNeverZero) {
  RandomStream rng(2);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(rng.uniform01_open_left(), 0.0);
    EXPECT_LE(rng.uniform01_open_left(), 1.0);
  }
}

TEST(RandomStream, Uniform01MeanAndVariance) {
  RandomStream rng(3);
  metrics::StreamingStats stats;
  for (int i = 0; i < kSamples; ++i) stats.add(rng.uniform01());
  EXPECT_NEAR(stats.mean(), 0.5, 0.005);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.002);
}

TEST(RandomStream, UniformRespectsBounds) {
  RandomStream rng(4);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(-3.0, 7.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 7.0);
  }
}

TEST(RandomStream, UniformIndexCoversRangeWithoutBias) {
  RandomStream rng(5);
  constexpr std::uint64_t kBuckets = 7;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[rng.uniform_index(kBuckets)];
  for (std::uint64_t b = 0; b < kBuckets; ++b) {
    const double expected = static_cast<double>(kSamples) / kBuckets;
    EXPECT_NEAR(counts[b], expected, expected * 0.05) << "bucket " << b;
  }
}

TEST(RandomStream, UniformIndexOfOneIsAlwaysZero) {
  RandomStream rng(6);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(RandomStream, ExponentialMeanAndVariance) {
  RandomStream rng(8);
  metrics::StreamingStats stats;
  constexpr double kMean = 30.0;  // the paper's 1/mu
  for (int i = 0; i < kSamples; ++i) stats.add(rng.exponential_mean(kMean));
  EXPECT_NEAR(stats.mean(), kMean, kMean * 0.02);
  EXPECT_NEAR(stats.variance(), kMean * kMean, kMean * kMean * 0.05);
  EXPECT_GE(stats.min(), 0.0);
}

TEST(RandomStream, ExponentialRateMatchesMeanForm) {
  RandomStream a(9);
  RandomStream b(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_DOUBLE_EQ(a.exponential_rate(0.5), b.exponential_mean(2.0));
  }
}

TEST(RandomStream, ParetoSupportAndMean) {
  RandomStream rng(10);
  constexpr double kXm = 2.0;
  constexpr double kAlpha = 3.0;
  metrics::StreamingStats stats;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.pareto(kXm, kAlpha);
    EXPECT_GE(x, kXm);
    stats.add(x);
  }
  const double expected_mean = kAlpha * kXm / (kAlpha - 1.0);
  EXPECT_NEAR(stats.mean(), expected_mean, expected_mean * 0.03);
}

TEST(RandomStream, NormalMomentsMatch) {
  RandomStream rng(11);
  metrics::StreamingStats stats;
  for (int i = 0; i < kSamples; ++i) stats.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.03);
}

TEST(RandomStream, ErlangIsSumOfExponentials) {
  RandomStream rng(12);
  metrics::StreamingStats stats;
  constexpr unsigned kStages = 4;
  constexpr double kRate = 0.5;
  for (int i = 0; i < kSamples; ++i) stats.add(erlang(rng, kStages, kRate));
  EXPECT_NEAR(stats.mean(), kStages / kRate, 0.1);
  EXPECT_NEAR(stats.variance(), kStages / (kRate * kRate), 0.5);
}

TEST(RandomStream, SplitProducesIndependentStreams) {
  RandomStream root(15);
  RandomStream a = root.split(1);
  RandomStream b = root.split(2);
  // Correlation of two supposedly-independent uniform streams should be ~0.
  double sum_ab = 0.0;
  double sum_a = 0.0;
  double sum_b = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double x = a.uniform01();
    const double y = b.uniform01();
    sum_ab += x * y;
    sum_a += x;
    sum_b += y;
  }
  const double cov = sum_ab / kN - (sum_a / kN) * (sum_b / kN);
  EXPECT_NEAR(cov, 0.0, 0.005);
}

}  // namespace
}  // namespace tempriv::sim
