#pragma once

#include <cstdint>
#include <functional>

namespace tempriv::infotheory {

/// Closed-form differential entropies (in nats) for the delay distributions
/// the paper discusses (§3.1). The exponential is the maximum-entropy
/// distribution among non-negative distributions with a fixed mean — the
/// paper's stated motivation for exponential privacy delays.

/// h(Exp) with the given mean = 1 + ln(mean). Requires mean > 0.
double exponential_entropy(double mean);

/// h(U[a,b]) = ln(b - a). Requires a < b.
double uniform_entropy(double a, double b);

/// h(Erlang(k, rate)) = (1−k)ψ(k) + ln Γ(k) + k − ln(rate). Requires k >= 1,
/// rate > 0. The paper's Xj (j-th Poisson arrival) is Erlang(j, λ).
double erlang_entropy(unsigned k, double rate);

/// h(Pareto(xm, α)) = ln(xm/α) + 1 + 1/α. Requires xm > 0, alpha > 0.
double pareto_entropy(double xm, double alpha);

/// Digamma ψ(x) for x > 0 (recurrence + asymptotic series); used by the
/// Erlang entropy and the Kozachenko–Leonenko estimator.
double digamma(double x);

/// ψ(m) for integer m >= 1 through a lazily grown, thread-local memo table
/// (the KSG estimator evaluates ψ only at the integer points n_x+1, n_z+1,
/// k and n, and revisits the small ones constantly). Returns exactly
/// digamma(static_cast<double>(m)) — the table stores those very values —
/// so swapping it into an estimator cannot change a single bit. Arguments
/// past the memo cap (2²²) fall through to digamma directly.
double digamma_int(std::uint64_t m);

/// Entropy power N(X) = e^{2h(X)} / (2πe).
double entropy_power(double differential_entropy_nats);

/// Entropy-power-inequality lower bound on the privacy leakage, paper
/// Eq. (2) in nats:
///   I(X; X+Y) = h(X+Y) − h(Y) >= ½ ln(e^{2h(X)} + e^{2h(Y)}) − h(Y).
double epi_leakage_lower_bound(double h_x, double h_y);

/// Single-packet leakage upper bound from Anantharam & Verdú ("Bits through
/// queues", Theorem 3(d)) as used in the paper:
///   I(X_j; Z_j) <= ln(1 + jµ/λ)   (nats).
double av_leakage_bound(std::uint64_t j, double mu, double lambda);

/// Paper Eq. (4): Σ_{j=1}^{n} ln(1 + jµ/λ) — the stream-level upper bound
/// on I(X^n; Z^n) (and hence on I(X^n; sorted Z^n) by data processing).
double av_leakage_bound_sum(std::uint64_t n, double mu, double lambda);

/// Numerical differential entropy −∫ f ln f of a pdf over [lo, hi] using
/// composite Simpson with `panels` (>= 2, rounded up to even) panels.
/// The pdf need not be normalized perfectly; values <= 0 contribute 0.
double numeric_entropy(const std::function<double(double)>& pdf, double lo,
                       double hi, std::size_t panels = 4096);

/// pdf of X+Y where X ~ Exp(rate lambda) and Y ~ Exp(rate mu) (independent).
/// Closed-form hypoexponential density; for lambda == mu it degenerates to
/// the Erlang(2) density. Used to cross-check numeric_entropy and the EPI.
double exp_sum_pdf(double x, double lambda, double mu);

}  // namespace tempriv::infotheory
