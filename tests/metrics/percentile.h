#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace tempriv::metrics {

/// Exact percentile over a sample set, nearest-rank definition. `q` in
/// [0, 1]. Sorts a copy. A test helper: no experiment reports percentiles.
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile: empty sample set");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("percentile: q outside [0,1]");
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[rank == 0 ? 0 : rank - 1];
}

}  // namespace tempriv::metrics
