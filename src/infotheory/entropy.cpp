#include "infotheory/entropy.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace tempriv::infotheory {

namespace {
constexpr double kTwoPiE = 17.079468445347132;  // 2πe
}

double exponential_entropy(double mean) {
  if (mean <= 0.0) throw std::invalid_argument("exponential_entropy: mean <= 0");
  return 1.0 + std::log(mean);
}

double uniform_entropy(double a, double b) {
  if (!(a < b)) throw std::invalid_argument("uniform_entropy: requires a < b");
  return std::log(b - a);
}

double digamma(double x) {
  if (x <= 0.0) throw std::invalid_argument("digamma: requires x > 0");
  // Shift x up until the asymptotic series is accurate, then apply
  // ψ(x) = ln x − 1/(2x) − Σ B_{2n}/(2n x^{2n}).
  double result = 0.0;
  while (x < 10.0) {
    result -= 1.0 / x;
    x += 1.0;
  }
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  result += std::log(x) - 0.5 * inv -
            inv2 * (1.0 / 12.0 -
                    inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 / 240.0)));
  return result;
}

double digamma_int(std::uint64_t m) {
  if (m == 0) throw std::invalid_argument("digamma_int: requires m >= 1");
  constexpr std::uint64_t kMaxMemo = std::uint64_t{1} << 22;
  if (m >= kMaxMemo) return digamma(static_cast<double>(m));
  thread_local std::vector<double> table;
  if (m >= table.size()) {
    // Grow geometrically so a sweep of increasing arguments costs one
    // digamma evaluation per table entry, amortized.
    const std::size_t target =
        std::max<std::size_t>(m + 1, std::max<std::size_t>(64, table.size() * 2));
    table.reserve(target);
    if (table.empty()) table.push_back(0.0);  // index 0 is never returned
    for (std::size_t v = table.size(); v < target; ++v) {
      table.push_back(digamma(static_cast<double>(v)));
    }
  }
  return table[m];
}

double erlang_entropy(unsigned k, double rate) {
  if (k == 0) throw std::invalid_argument("erlang_entropy: k >= 1 required");
  if (rate <= 0.0) throw std::invalid_argument("erlang_entropy: rate <= 0");
  const auto kd = static_cast<double>(k);
  return (1.0 - kd) * digamma(kd) + std::lgamma(kd) + kd - std::log(rate);
}

double pareto_entropy(double xm, double alpha) {
  if (xm <= 0.0 || alpha <= 0.0) {
    throw std::invalid_argument("pareto_entropy: xm, alpha > 0 required");
  }
  return std::log(xm / alpha) + 1.0 + 1.0 / alpha;
}

double entropy_power(double h) { return std::exp(2.0 * h) / kTwoPiE; }

double epi_leakage_lower_bound(double h_x, double h_y) {
  // log-sum-exp for stability: ½ ln(e^{2hX} + e^{2hY}) − hY.
  const double a = 2.0 * h_x;
  const double b = 2.0 * h_y;
  const double m = std::max(a, b);
  const double lse = m + std::log(std::exp(a - m) + std::exp(b - m));
  return 0.5 * lse - h_y;
}

double av_leakage_bound(std::uint64_t j, double mu, double lambda) {
  if (mu <= 0.0 || lambda <= 0.0) {
    throw std::invalid_argument("av_leakage_bound: mu, lambda > 0 required");
  }
  return std::log1p(static_cast<double>(j) * mu / lambda);
}

double av_leakage_bound_sum(std::uint64_t n, double mu, double lambda) {
  double sum = 0.0;
  for (std::uint64_t j = 1; j <= n; ++j) sum += av_leakage_bound(j, mu, lambda);
  return sum;
}

double numeric_entropy(const std::function<double(double)>& pdf, double lo,
                       double hi, std::size_t panels) {
  if (!(lo < hi)) throw std::invalid_argument("numeric_entropy: lo < hi required");
  if (panels < 2) panels = 2;
  if (panels % 2 != 0) ++panels;
  auto integrand = [&pdf](double x) {
    const double f = pdf(x);
    return f > 0.0 ? -f * std::log(f) : 0.0;
  };
  const double h = (hi - lo) / static_cast<double>(panels);
  double sum = integrand(lo) + integrand(hi);
  for (std::size_t i = 1; i < panels; ++i) {
    const double x = lo + static_cast<double>(i) * h;
    sum += integrand(x) * (i % 2 == 1 ? 4.0 : 2.0);
  }
  return sum * h / 3.0;
}

double exp_sum_pdf(double x, double lambda, double mu) {
  if (lambda <= 0.0 || mu <= 0.0) {
    throw std::invalid_argument("exp_sum_pdf: rates must be positive");
  }
  if (x < 0.0) return 0.0;
  if (std::fabs(lambda - mu) < 1e-9 * std::max(lambda, mu)) {
    return lambda * lambda * x * std::exp(-lambda * x);  // Erlang(2, λ)
  }
  return lambda * mu / (lambda - mu) * (std::exp(-mu * x) - std::exp(-lambda * x));
}

}  // namespace tempriv::infotheory
