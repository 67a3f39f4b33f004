#pragma once

#include <cstdint>

#include "sim/rng.h"

namespace tempriv::sim {

/// Deterministic, platform-stable random variate samplers on top of
/// Xoshiro256pp. We deliberately avoid std:: distributions: their output is
/// implementation-defined and differs between libstdc++ versions, which
/// would make simulation results irreproducible.
class RandomStream {
 public:
  explicit RandomStream(std::uint64_t seed) noexcept : rng_(seed) {}
  explicit RandomStream(Xoshiro256pp rng) noexcept : rng_(rng) {}

  /// Derives an independent stream for subcomponent `stream_id`.
  RandomStream split(std::uint64_t stream_id) const noexcept {
    return RandomStream(rng_.split(stream_id));
  }

  /// Raw 64 uniform bits.
  std::uint64_t bits() noexcept { return rng_.next(); }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform01() noexcept;

  /// Uniform double in (0, 1]; safe to pass to log().
  double uniform01_open_left() noexcept;

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0. Unbiased (Lemire rejection).
  std::uint64_t uniform_index(std::uint64_t n) noexcept;

  /// Exponential with given mean (= 1/rate). Requires mean > 0.
  double exponential_mean(double mean) noexcept;

  /// Exponential with given rate lambda. Requires rate > 0.
  double exponential_rate(double rate) noexcept;

  /// Pareto (Lomax-free classic form): xm * U^{-1/alpha}, support [xm, inf).
  /// Requires xm > 0, alpha > 0. Mean is finite only for alpha > 1.
  double pareto(double xm, double alpha) noexcept;

  /// Standard normal via Box-Muller (deterministic, no cached spare).
  double normal(double mean, double stddev) noexcept;

 private:
  Xoshiro256pp rng_;
};

}  // namespace tempriv::sim
