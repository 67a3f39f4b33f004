#include "infotheory/estimators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "infotheory/entropy.h"
#include "sim/erlang_draw.h"
#include "sim/random.h"

namespace tempriv::infotheory {
namespace {

std::vector<double> exponential_samples(double mean, std::size_t n,
                                        std::uint64_t seed) {
  sim::RandomStream rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.exponential_mean(mean);
  return xs;
}

std::vector<double> uniform_samples(double lo, double hi, std::size_t n,
                                    std::uint64_t seed) {
  sim::RandomStream rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.uniform(lo, hi);
  return xs;
}

TEST(EntropyHistogram, RecoversUniformEntropy) {
  const auto xs = uniform_samples(0.0, 8.0, 50000, 1);
  EXPECT_NEAR(entropy_histogram(xs, 64), std::log(8.0), 0.05);
}

TEST(EntropyHistogram, RecoversExponentialEntropy) {
  const double mean = 30.0;
  const auto xs = exponential_samples(mean, 100000, 2);
  EXPECT_NEAR(entropy_histogram(xs, 128), exponential_entropy(mean), 0.1);
}

TEST(EntropyHistogram, ValidatesInput) {
  EXPECT_THROW(entropy_histogram(std::vector<double>{}, 10),
               std::invalid_argument);
  EXPECT_THROW(entropy_histogram(std::vector<double>{1.0}, 10),
               std::invalid_argument);
  EXPECT_THROW(entropy_histogram(std::vector<double>{1.0, 1.0}, 10),
               std::invalid_argument);  // zero spread
  EXPECT_THROW(entropy_histogram(std::vector<double>{1.0, 2.0}, 0),
               std::invalid_argument);
}

TEST(EntropyKnn, RecoversUniformEntropy) {
  const auto xs = uniform_samples(0.0, 8.0, 20000, 3);
  EXPECT_NEAR(entropy_knn(xs, 3), std::log(8.0), 0.05);
}

TEST(EntropyKnn, RecoversExponentialEntropy) {
  const double mean = 5.0;
  const auto xs = exponential_samples(mean, 20000, 4);
  EXPECT_NEAR(entropy_knn(xs, 3), exponential_entropy(mean), 0.05);
}

TEST(EntropyKnn, HandlesDuplicatesWithoutBlowingUp) {
  std::vector<double> xs = uniform_samples(0.0, 1.0, 100, 5);
  xs.push_back(xs.front());  // exact duplicate -> zero NN distance
  const double h = entropy_knn(xs, 1);
  EXPECT_TRUE(std::isfinite(h));
}

TEST(EntropyKnn, ValidatesInput) {
  EXPECT_THROW(entropy_knn(std::vector<double>{1.0, 2.0}, 0),
               std::invalid_argument);
  EXPECT_THROW(entropy_knn(std::vector<double>{1.0, 2.0}, 2),
               std::invalid_argument);
}

TEST(MutualInformationHistogram, NearZeroForIndependentVariables) {
  const auto xs = uniform_samples(0.0, 1.0, 50000, 6);
  const auto zs = uniform_samples(0.0, 1.0, 50000, 7);
  // Plug-in MI has a small positive bias; it must still be near zero.
  EXPECT_LT(mutual_information_histogram(xs, zs, 16), 0.02);
}

TEST(MutualInformationHistogram, LargeForDeterministicRelation) {
  const auto xs = uniform_samples(0.0, 1.0, 50000, 8);
  std::vector<double> zs(xs.begin(), xs.end());
  for (double& z : zs) z = 3.0 * z + 1.0;
  // I(X; aX+b) is infinite in theory; the binned estimate ~ ln(bins).
  EXPECT_GT(mutual_information_histogram(xs, zs, 16), 2.0);
}

TEST(MutualInformationHistogram, ValidatesInput) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::vector<double> short_z{1.0};
  EXPECT_THROW(mutual_information_histogram(xs, short_z, 8),
               std::invalid_argument);
  EXPECT_THROW(mutual_information_histogram(xs, xs, 0), std::invalid_argument);
}

TEST(MutualInformationRanked, AgreesWithDirectEstimateOnLightTails) {
  // For well-behaved marginals the rank transform changes nothing material.
  const std::size_t n = 40000;
  const auto xs = uniform_samples(0.0, 10.0, n, 20);
  const auto delays = exponential_samples(5.0, n, 21);
  std::vector<double> zs(n);
  for (std::size_t i = 0; i < n; ++i) zs[i] = xs[i] + delays[i];
  const double direct = mutual_information_histogram(xs, zs, 24);
  const double ranked = mutual_information_ranked(xs, zs, 24);
  EXPECT_NEAR(ranked, direct, 0.15);
}

TEST(MutualInformationRanked, SurvivesHeavyTails) {
  // Pareto(α = 1.1) delays have near-infinite variance; equal-width bins
  // collapse (one extreme sample swallows the range) while ranks do not.
  sim::RandomStream rng(22);
  const std::size_t n = 40000;
  std::vector<double> xs(n);
  std::vector<double> zs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = rng.uniform(0.0, 10.0);
    zs[i] = xs[i] + rng.pareto(1.0, 1.1);
  }
  const double direct = mutual_information_histogram(xs, zs, 24);
  const double ranked = mutual_information_ranked(xs, zs, 24);
  // Small delays (median ~1.9 vs creation spread 10) leak a lot; the
  // direct estimator misses it, the ranked one must not.
  EXPECT_LT(direct, 0.3);
  EXPECT_GT(ranked, 0.8);
}

TEST(MutualInformationRanked, NearZeroForIndependentVariables) {
  const auto xs = uniform_samples(0.0, 1.0, 50000, 23);
  const auto zs = uniform_samples(0.0, 1.0, 50000, 24);
  EXPECT_LT(mutual_information_ranked(xs, zs, 16), 0.02);
}

TEST(MutualInformationRanked, HandlesTiesDeterministically) {
  // Constant delays: Z = X + c is a strictly monotone transform of X, so
  // ranked MI saturates near ln(bins) — and repeated calls agree exactly.
  const auto xs = uniform_samples(0.0, 1.0, 10000, 25);
  std::vector<double> zs(xs.begin(), xs.end());
  for (double& z : zs) z += 30.0;
  const double a = mutual_information_ranked(xs, zs, 16);
  const double b = mutual_information_ranked(xs, zs, 16);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_GT(a, 2.0);
}

TEST(LeakageFromDelays, BiggerDelaysLeakLess) {
  // The core qualitative claim of §3: increasing the mean privacy delay
  // relative to the creation spread reduces I(X; Z).
  const std::size_t n = 40000;
  const auto creations = uniform_samples(0.0, 10.0, n, 9);
  const auto small_delay = exponential_samples(1.0, n, 10);
  const auto large_delay = exponential_samples(100.0, n, 11);
  const double leak_small = leakage_from_delays(creations, small_delay, 24);
  const double leak_large = leakage_from_delays(creations, large_delay, 24);
  EXPECT_GT(leak_small, leak_large);
  EXPECT_GT(leak_small, 0.5);  // nearly-deterministic arrival -> big leak
  EXPECT_LT(leak_large, 0.5);
}

TEST(LeakageFromDelays, RespectsAnantharamVerduBoundOnAverage) {
  // Eq. (4)'s per-packet term: a Poisson(λ = 1) source's j-th packet is
  // created at Xj ~ Erlang(j, λ) and delayed by Y ~ Exp(µ), and
  // I(Xj; Zj) <= ln(1 + jµ/λ). Each cell estimates Î from 40,000 pairs
  // (24-bin histogram, seed 1000 + j) and must sit below its bound with no
  // slack: the bound at µ/λ = 0.01, j = 1 is only 0.0100 nats. Within each
  // j, Î must shrink as µ/λ shrinks, the paper's rule for choosing µ. Over
  // 12 seeds per cell (these and 11 more) Î stayed below 0.65 of its bound
  // and fell strictly with µ/λ for every j. A new column (an exact value,
  // another estimator) extends this one table.
  struct LeakageCell {
    double mu_over_lambda;
    std::uint64_t j;
  };
  constexpr LeakageCell kGrid[] = {
      {1.0, 1},         {1.0, 3},         {1.0, 10},         {1.0, 30},
      {0.2, 1},         {0.2, 3},         {0.2, 10},         {0.2, 30},
      {1.0 / 30.0, 1},  {1.0 / 30.0, 3},  {1.0 / 30.0, 10},  {1.0 / 30.0, 30},
      {0.01, 1},        {0.01, 3},        {0.01, 10},        {0.01, 30},
  };
  constexpr double kLambda = 1.0;
  constexpr std::size_t kTrials = 40000;

  std::vector<double> estimates;
  for (const LeakageCell& cell : kGrid) {
    sim::RandomStream rng(1000 + cell.j);
    const double mean_delay = 1.0 / (cell.mu_over_lambda * kLambda);
    std::vector<double> xs(kTrials);
    std::vector<double> zs(kTrials);
    for (std::size_t t = 0; t < kTrials; ++t) {
      xs[t] = sim::erlang(rng, static_cast<unsigned>(cell.j), kLambda);
      zs[t] = xs[t] + rng.exponential_mean(mean_delay);
    }
    estimates.push_back(mutual_information_histogram(xs, zs, 24));
    EXPECT_LE(estimates.back(),
              av_leakage_bound(cell.j, cell.mu_over_lambda * kLambda, kLambda))
        << "mu/lambda " << cell.mu_over_lambda << ", j " << cell.j;
  }
  for (std::size_t a = 0; a < std::size(kGrid); ++a) {
    for (std::size_t b = 0; b < std::size(kGrid); ++b) {
      if (kGrid[a].j == kGrid[b].j &&
          kGrid[b].mu_over_lambda < kGrid[a].mu_over_lambda) {
        EXPECT_LT(estimates[b], estimates[a])
            << "j " << kGrid[a].j << ": mu/lambda " << kGrid[b].mu_over_lambda
            << " leaks no less than " << kGrid[a].mu_over_lambda;
      }
    }
  }
}

TEST(MutualInformationKsg, NearExactForCorrelatedGaussians) {
  // Closed form: I(X;Z) = -0.5 ln(1 - r^2) for a bivariate Gaussian with
  // correlation r. KSG should land within a few hundredths of a nat at
  // moderate sample sizes, where histogram estimators are badly biased.
  sim::RandomStream rng(30);
  const std::size_t n = 4000;
  const double r = 0.6;
  std::vector<double> xs(n);
  std::vector<double> zs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.normal(0.0, 1.0);
    const double b = rng.normal(0.0, 1.0);
    xs[i] = a;
    zs[i] = r * a + std::sqrt(1.0 - r * r) * b;
  }
  const double exact = -0.5 * std::log(1.0 - r * r);
  EXPECT_NEAR(mutual_information_ksg(xs, zs, 3), exact, 0.05);
}

TEST(MutualInformationKsg, NearZeroForIndependentSamples) {
  sim::RandomStream rng(31);
  const std::size_t n = 3000;
  std::vector<double> xs(n);
  std::vector<double> zs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = rng.uniform01();
    zs[i] = rng.exponential_mean(4.0);
  }
  EXPECT_LT(mutual_information_ksg(xs, zs, 4), 0.03);
}

TEST(MutualInformationKsg, TracksLeakageOrderingWithHistogram) {
  // Small vs large delays: KSG must agree with the histogram estimator on
  // which configuration leaks more.
  const std::size_t n = 3000;
  const auto creations = uniform_samples(0.0, 10.0, n, 32);
  const auto small_delay = exponential_samples(1.0, n, 33);
  const auto large_delay = exponential_samples(100.0, n, 34);
  std::vector<double> z_small(n);
  std::vector<double> z_large(n);
  for (std::size_t i = 0; i < n; ++i) {
    z_small[i] = creations[i] + small_delay[i];
    z_large[i] = creations[i] + large_delay[i];
  }
  EXPECT_GT(mutual_information_ksg(creations, z_small, 3),
            mutual_information_ksg(creations, z_large, 3));
}

TEST(MutualInformationKsg, ValidatesInput) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::vector<double> bad{1.0};
  EXPECT_THROW(mutual_information_ksg(xs, bad, 1), std::invalid_argument);
  EXPECT_THROW(mutual_information_ksg(xs, xs, 0), std::invalid_argument);
  EXPECT_THROW(mutual_information_ksg(xs, xs, 3), std::invalid_argument);
}

TEST(LeakageFromDelays, ValidatesSizes) {
  EXPECT_THROW(
      leakage_from_delays(std::vector<double>{1.0}, std::vector<double>{}, 8),
      std::invalid_argument);
}

}  // namespace
}  // namespace tempriv::infotheory
