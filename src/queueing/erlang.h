#pragma once

#include <cstdint>

namespace tempriv::queueing {

/// Poisson PMF p_k = ρ^k e^{-ρ} / k!, computed in log space for stability.
/// This is the stationary buffer-occupancy distribution of the paper's
/// M/M/∞ model (§4): a node with Poisson(λ) arrivals that delays each
/// packet Exp(µ) holds Poisson(ρ = λ/µ) packets.
double poisson_pmf(double rho, std::uint64_t k);

/// Poisson CDF P{N <= k}.
double poisson_cdf(double rho, std::uint64_t k);

/// Erlang loss (Erlang-B) formula, paper Eq. (5):
///   E(ρ, k) = (ρ^k / k!) / Σ_{i=0}^{k} ρ^i / i!
/// the probability that an arriving packet finds all k buffer slots of an
/// M/M/k/k node occupied. Computed with the standard numerically-stable
/// recurrence E(ρ, j) = ρ E(ρ, j−1) / (j + ρ E(ρ, j−1)), E(ρ, 0) = 1.
/// Requires rho >= 0.
double erlang_loss(double rho, std::uint64_t k);

/// Stationary occupancy PMF of an M/M/k/k queue (truncated Poisson):
///   P{N = n} = (ρ^n / n!) / Σ_{i=0}^{k} ρ^i / i!,  0 <= n <= k.
double mmkk_occupancy_pmf(double rho, std::uint64_t k, std::uint64_t n);

/// Expected occupancy of an M/M/k/k queue: ρ (1 − E(ρ, k)).
double mmkk_expected_occupancy(double rho, std::uint64_t k);

/// Largest ρ such that E(ρ, k) <= target_loss (the admissible offered load
/// for a k-slot buffer at drop-rate budget α). Solved by bisection; exact to
/// ~1e-12 relative. Requires 0 < target_loss < 1.
double max_rho_for_loss(double target_loss, std::uint64_t k);

/// The paper's dimensioning rule (§4, end): given incoming traffic rate
/// `lambda`, buffer size `k`, and a target drop rate `alpha`, return the
/// service rate µ (i.e. 1/mean-delay) a node must use. As λ grows toward
/// the sink, the returned µ grows — i.e. the mean privacy delay 1/µ must
/// shrink to keep the drop rate at α. Requires lambda > 0.
double mu_for_target_loss(double lambda, std::uint64_t k, double alpha);

/// Certified constant-time form of the regime test
/// `erlang_loss(rho, k) > threshold` that the adaptive adversaries run on
/// every delivered packet (k serial divides per call through the
/// recurrence). E(ρ, k) is strictly increasing in ρ, so the test is a
/// threshold crossing: construction bisects for a window [lo, hi] around
/// the boundary offered load ρ* with E(lo, k) certifiably at or below the
/// threshold and E(hi, k) certifiably above it. above() then answers with
/// one comparison outside the window and falls back to the exact
/// recurrence inside it, so every answer is bit-for-bit the boolean the
/// direct computation produces.
///
/// The certification margin (~1e-9 relative, plus 1e-14 per recurrence
/// step) is orders of magnitude wider than the forward error of the
/// all-positive-terms recurrence (a few ulps per step), and the window it
/// induces in ρ is ~1e-8 relative — the fallback is unreachable in
/// practice but keeps the fast path honest.
class ErlangLossThreshold {
 public:
  /// Requires 0 < threshold < 1 (a loss probability). k = 0 is allowed:
  /// E(ρ, 0) = 1, so the test is constantly true.
  ErlangLossThreshold(double threshold, std::uint64_t k);

  /// Exactly `erlang_loss(rho, k) > threshold`.
  /// Requires rho >= 0 (the direct call throws on negative rho; this
  /// returns false).
  bool above(double rho) const noexcept {
    if (rho >= rho_hi_) return true;
    if (rho <= rho_lo_) return false;
    return erlang_loss(rho, k_) > threshold_;
  }

  /// Certified window bounds, exposed for tests: above() is decided by
  /// comparison alone outside [window_lo, window_hi].
  double window_lo() const noexcept { return rho_lo_; }
  double window_hi() const noexcept { return rho_hi_; }

 private:
  double threshold_;
  std::uint64_t k_;
  double rho_lo_;  ///< rho <= rho_lo_ certifies E(rho, k) <= threshold
  double rho_hi_;  ///< rho >= rho_hi_ certifies E(rho, k) > threshold
};

}  // namespace tempriv::queueing
