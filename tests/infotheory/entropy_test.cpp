#include "infotheory/entropy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace tempriv::infotheory {
namespace {

/// h(N(µ, σ²)) = ½ ln(2πeσ²), the entropy the EPI is tight for.
double gaussian_entropy(double stddev) {
  return 0.5 * std::log(2.0 * M_PI * M_E * stddev * stddev);
}

TEST(ClosedFormEntropies, Exponential) {
  // h(Exp(mean)) = 1 + ln(mean).
  EXPECT_NEAR(exponential_entropy(1.0), 1.0, 1e-12);
  EXPECT_NEAR(exponential_entropy(30.0), 1.0 + std::log(30.0), 1e-12);
  EXPECT_THROW(exponential_entropy(0.0), std::invalid_argument);
}

TEST(ClosedFormEntropies, Uniform) {
  EXPECT_NEAR(uniform_entropy(0.0, 1.0), 0.0, 1e-12);
  EXPECT_NEAR(uniform_entropy(0.0, 60.0), std::log(60.0), 1e-12);
  EXPECT_THROW(uniform_entropy(1.0, 1.0), std::invalid_argument);
}

TEST(ClosedFormEntropies, ErlangReducesToExponentialAtK1) {
  // Erlang(1, rate) is Exp(1/rate).
  EXPECT_NEAR(erlang_entropy(1, 0.5), exponential_entropy(2.0), 1e-9);
  EXPECT_THROW(erlang_entropy(0, 1.0), std::invalid_argument);
}

TEST(ClosedFormEntropies, Pareto) {
  // h = ln(xm/α) + 1 + 1/α.
  EXPECT_NEAR(pareto_entropy(1.0, 1.0), 0.0 + 1.0 + 1.0, 1e-12);
  EXPECT_THROW(pareto_entropy(0.0, 1.0), std::invalid_argument);
}

TEST(ExponentialIsMaxEntropy, AmongFixedMeanNonNegative) {
  // The paper's motivation for exponential delays: among the supported
  // distributions with mean 30, exponential has the largest h.
  const double mean = 30.0;
  const double h_exp = exponential_entropy(mean);
  const double h_unif = uniform_entropy(0.0, 2.0 * mean);   // mean 30
  const double h_erlang = erlang_entropy(3, 3.0 / mean);    // mean 30
  const double h_pareto = pareto_entropy(mean / 3.0, 1.5);  // mean 30
  EXPECT_GT(h_exp, h_unif);
  EXPECT_GT(h_exp, h_erlang);
  EXPECT_GT(h_exp, h_pareto);
}

TEST(Digamma, KnownValues) {
  constexpr double kEulerGamma = 0.5772156649015329;
  EXPECT_NEAR(digamma(1.0), -kEulerGamma, 1e-10);
  EXPECT_NEAR(digamma(2.0), 1.0 - kEulerGamma, 1e-10);
  EXPECT_NEAR(digamma(0.5), -kEulerGamma - 2.0 * std::log(2.0), 1e-10);
  EXPECT_THROW(digamma(0.0), std::invalid_argument);
}

TEST(Digamma, SatisfiesRecurrence) {
  for (double x : {0.3, 1.7, 4.2, 11.0}) {
    EXPECT_NEAR(digamma(x + 1.0), digamma(x) + 1.0 / x, 1e-10) << x;
  }
}

TEST(EntropyPower, GaussianEntropyPowerIsVariance) {
  // N(X) = σ² exactly when X is Gaussian.
  const double sigma = 3.0;
  EXPECT_NEAR(entropy_power(gaussian_entropy(sigma)), sigma * sigma, 1e-9);
}

TEST(EpiLeakageBound, TightForGaussianPair) {
  // For X ~ N(0, σx²), Y ~ N(0, σy²): I(X; X+Y) = ½ ln(1 + σx²/σy²) and the
  // EPI bound is met with equality.
  const double sx = 2.0;
  const double sy = 3.0;
  const double exact = 0.5 * std::log(1.0 + sx * sx / (sy * sy));
  EXPECT_NEAR(epi_leakage_lower_bound(gaussian_entropy(sx), gaussian_entropy(sy)),
              exact, 1e-9);
}

TEST(EpiLeakageBound, LowerBoundsExponentialLeakage) {
  // For X, Y exponential the true leakage must be >= the EPI bound.
  const double lambda = 1.0;   // X rate
  const double mu = 1.0 / 30;  // Y rate (mean 30)
  auto pdf = [&](double t) { return exp_sum_pdf(t, lambda, mu); };
  const double h_sum = numeric_entropy(pdf, 0.0, 600.0, 1 << 15);
  const double true_leak = h_sum - exponential_entropy(1.0 / mu);
  const double bound = epi_leakage_lower_bound(exponential_entropy(1.0 / lambda),
                                               exponential_entropy(1.0 / mu));
  EXPECT_GE(true_leak + 1e-6, bound);
}

TEST(AvLeakageBound, MatchesPaperFormula) {
  // ln(1 + jµ/λ).
  EXPECT_NEAR(av_leakage_bound(1, 0.5, 1.0), std::log(1.5), 1e-12);
  EXPECT_NEAR(av_leakage_bound(4, 0.5, 1.0), std::log(3.0), 1e-12);
  EXPECT_THROW(av_leakage_bound(1, 0.0, 1.0), std::invalid_argument);
}

TEST(AvLeakageBound, SmallMuRelativeToLambdaShrinksLeakage) {
  // The paper's design rule: tune µ small relative to λ.
  const double leaky = av_leakage_bound_sum(100, /*mu=*/1.0, /*lambda=*/1.0);
  const double private_ = av_leakage_bound_sum(100, /*mu=*/0.01, /*lambda=*/1.0);
  EXPECT_LT(private_, leaky);
}

TEST(AvLeakageBoundSum, IsSumOfPerPacketBounds) {
  const double sum = av_leakage_bound_sum(5, 0.3, 2.0);
  double manual = 0.0;
  for (std::uint64_t j = 1; j <= 5; ++j) manual += av_leakage_bound(j, 0.3, 2.0);
  EXPECT_NEAR(sum, manual, 1e-12);
  EXPECT_DOUBLE_EQ(av_leakage_bound_sum(0, 0.3, 2.0), 0.0);
}

TEST(NumericEntropy, RecoversClosedFormsWithinTolerance) {
  // Uniform[0, 4]: h = ln 4.
  auto uniform_pdf = [](double x) { return (x >= 0.0 && x <= 4.0) ? 0.25 : 0.0; };
  EXPECT_NEAR(numeric_entropy(uniform_pdf, 0.0, 4.0, 1 << 12), std::log(4.0),
              1e-3);
  // Exp(mean 2): h = 1 + ln 2.
  auto exp_pdf = [](double x) { return x >= 0.0 ? 0.5 * std::exp(-x / 2.0) : 0.0; };
  EXPECT_NEAR(numeric_entropy(exp_pdf, 0.0, 60.0, 1 << 14), 1.0 + std::log(2.0),
              1e-3);
}

TEST(ExpSumPdf, IntegratesToOneAndHandlesEqualRates) {
  auto pdf_distinct = [](double x) { return exp_sum_pdf(x, 1.0, 0.25); };
  double mass = 0.0;
  const int n = 1 << 14;
  const double hi = 120.0;
  for (int i = 0; i < n; ++i) {
    mass += pdf_distinct((i + 0.5) * hi / n) * hi / n;
  }
  EXPECT_NEAR(mass, 1.0, 1e-6);
  // Equal rates degrade to Erlang(2): f(x) = λ²x e^{-λx}.
  EXPECT_NEAR(exp_sum_pdf(2.0, 1.0, 1.0), 1.0 * 1.0 * 2.0 * std::exp(-2.0),
              1e-9);
  EXPECT_DOUBLE_EQ(exp_sum_pdf(-1.0, 1.0, 2.0), 0.0);
}

}  // namespace
}  // namespace tempriv::infotheory
