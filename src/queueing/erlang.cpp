#include "queueing/erlang.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace tempriv::queueing {

double poisson_pmf(double rho, std::uint64_t k) {
  if (rho < 0.0) throw std::invalid_argument("poisson_pmf: rho < 0");
  if (rho == 0.0) return k == 0 ? 1.0 : 0.0;
  const double log_pmf = static_cast<double>(k) * std::log(rho) - rho -
                         std::lgamma(static_cast<double>(k) + 1.0);
  return std::exp(log_pmf);
}

double poisson_cdf(double rho, std::uint64_t k) {
  if (rho < 0.0) throw std::invalid_argument("poisson_cdf: rho < 0");
  // Forward recurrence on the PMF terms; stable for the moderate ρ (< 10^3)
  // that sensor buffers see.
  double term = std::exp(-rho);
  double sum = term;
  for (std::uint64_t i = 1; i <= k; ++i) {
    term *= rho / static_cast<double>(i);
    sum += term;
  }
  return std::min(sum, 1.0);
}

double erlang_loss(double rho, std::uint64_t k) {
  if (rho < 0.0) throw std::invalid_argument("erlang_loss: rho < 0");
  double inv = 1.0;  // 1 / E(rho, 0)
  for (std::uint64_t j = 1; j <= k; ++j) {
    // 1/E(ρ,j) = 1 + j / (ρ E(ρ,j-1))  =>  inv_j = 1 + j * inv_{j-1} / ρ
    inv = 1.0 + static_cast<double>(j) * inv / rho;
  }
  return 1.0 / inv;
}

double mmkk_occupancy_pmf(double rho, std::uint64_t k, std::uint64_t n) {
  if (n > k) return 0.0;
  // Normalize the Poisson PMF over {0..k}.
  const double truncated_mass = poisson_cdf(rho, k);
  if (truncated_mass <= 0.0) return n == k ? 1.0 : 0.0;
  return poisson_pmf(rho, n) / truncated_mass;
}

double mmkk_expected_occupancy(double rho, std::uint64_t k) {
  return rho * (1.0 - erlang_loss(rho, k));
}

double max_rho_for_loss(double target_loss, std::uint64_t k) {
  if (target_loss <= 0.0 || target_loss >= 1.0) {
    throw std::invalid_argument("max_rho_for_loss: target in (0,1) required");
  }
  // E(ρ, k) is strictly increasing in ρ, E(0,k)=0, E(ρ,k)→1: bisect.
  double lo = 0.0;
  double hi = 1.0;
  while (erlang_loss(hi, k) < target_loss) {
    hi *= 2.0;
    if (hi > 1e12) return hi;  // target loss ~1; effectively unbounded
  }
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (erlang_loss(mid, k) < target_loss) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double mu_for_target_loss(double lambda, std::uint64_t k, double alpha) {
  if (lambda <= 0.0) throw std::invalid_argument("mu_for_target_loss: lambda <= 0");
  const double rho = max_rho_for_loss(alpha, k);
  return lambda / rho;
}

ErlangLossThreshold::ErlangLossThreshold(double threshold, std::uint64_t k)
    : threshold_(threshold), k_(k) {
  if (threshold <= 0.0 || threshold >= 1.0) {
    throw std::invalid_argument("ErlangLossThreshold: threshold outside (0,1)");
  }
  if (k == 0) {
    // E(ρ, 0) = 1 > threshold at every offered load.
    rho_lo_ = -1.0;
    rho_hi_ = 0.0;
    return;
  }
  // Certification targets. The recurrence accumulates a few ulps of
  // relative error per step and never subtracts near-equal terms, so a
  // value computed at least `2 * margin` above (below) the threshold stays
  // above (below) it for every larger (smaller) rho: the true function is
  // strictly monotone, and margin dwarfs the computed-vs-true discrepancy.
  const double margin = 1e-9 + static_cast<double>(k) * 1e-14;
  const double hi_target = threshold * (1.0 + 2.0 * margin);
  const double lo_target = threshold * (1.0 - 2.0 * margin);

  // Upper edge: smallest bracketed rho with E(rho, k) >= hi_target.
  double lo = 0.0;  // E(0, k) = 0 < lo_target
  double hi = 1.0;
  while (erlang_loss(hi, k) < hi_target) {
    hi *= 2.0;
    if (!(hi < 1e300)) break;  // threshold ~1: certify nothing, always fall back
  }
  if (erlang_loss(hi, k) >= hi_target) {
    double below = lo;
    for (int iter = 0; iter < 200; ++iter) {
      const double mid = 0.5 * (below + hi);
      if (erlang_loss(mid, k) >= hi_target) {
        hi = mid;
      } else {
        below = mid;
      }
    }
    rho_hi_ = hi;
  } else {
    rho_hi_ = std::numeric_limits<double>::infinity();
  }

  // Lower edge: largest bracketed rho with E(rho, k) <= lo_target.
  double above_edge = std::isinf(rho_hi_) ? 1e300 : rho_hi_;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + above_edge);
    if (erlang_loss(mid, k) <= lo_target) {
      lo = mid;
    } else {
      above_edge = mid;
    }
  }
  rho_lo_ = lo;

  // Belt and braces: a finite upper edge must itself test above the
  // threshold (guards degenerate thresholds, e.g. NaN slipping through
  // comparisons); the lower edge is always safe because E(0, k) = 0.
  if (std::isfinite(rho_hi_) && !(erlang_loss(rho_hi_, k) > threshold)) {
    rho_hi_ = std::numeric_limits<double>::infinity();
  }
}

}  // namespace tempriv::queueing
