#pragma once

#include <cmath>

#include "sim/random.h"

namespace tempriv::sim {

/// Erlang(k, rate): the sum of k independent Exponential(rate) variates,
/// drawn as the product of k uniforms (one log instead of k). A test
/// fixture: the paper's Xⱼ, the j-th Poisson arrival, is Erlang(j, λ).
inline double erlang(RandomStream& rng, unsigned k, double rate) {
  double product = 1.0;
  for (unsigned i = 0; i < k; ++i) product *= rng.uniform01_open_left();
  return -std::log(product) / rate;
}

}  // namespace tempriv::sim
