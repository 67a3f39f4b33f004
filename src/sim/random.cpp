#include "sim/random.h"

#include <cassert>
#include <cmath>

namespace tempriv::sim {

double RandomStream::uniform01() noexcept {
  // Take the top 53 bits; (x >> 11) * 2^-53 is the canonical conversion.
  return static_cast<double>(rng_.next() >> 11) * 0x1.0p-53;
}

double RandomStream::uniform01_open_left() noexcept {
  return 1.0 - uniform01();  // in (0, 1]
}

double RandomStream::uniform(double lo, double hi) noexcept {
  assert(lo <= hi);
  return lo + (hi - lo) * uniform01();
}

std::uint64_t RandomStream::uniform_index(std::uint64_t n) noexcept {
  assert(n > 0);
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t x = rng_.next();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = rng_.next();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double RandomStream::exponential_mean(double mean) noexcept {
  assert(mean > 0.0);
  return -mean * std::log(uniform01_open_left());
}

double RandomStream::exponential_rate(double rate) noexcept {
  assert(rate > 0.0);
  return -std::log(uniform01_open_left()) / rate;
}

double RandomStream::pareto(double xm, double alpha) noexcept {
  assert(xm > 0.0 && alpha > 0.0);
  return xm * std::pow(uniform01_open_left(), -1.0 / alpha);
}

double RandomStream::normal(double mean, double stddev) noexcept {
  const double u1 = uniform01_open_left();
  const double u2 = uniform01();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * radius * std::cos(6.283185307179586476925286766559 * u2);
}

}  // namespace tempriv::sim
