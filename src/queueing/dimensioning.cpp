#include "queueing/dimensioning.h"

#include <stdexcept>

#include "queueing/erlang.h"

namespace tempriv::queueing {

std::vector<double> aggregate_rates(const RoutingTree& tree,
                                    const std::vector<double>& source_rates) {
  const std::size_t n = tree.size();
  if (source_rates.size() != n) {
    throw std::invalid_argument("aggregate_rates: rate/tree size mismatch");
  }
  std::vector<double> rates(source_rates);
  for (std::size_t i = 0; i < n; ++i) {
    if (source_rates[i] < 0.0) {
      throw std::invalid_argument("aggregate_rates: negative source rate");
    }
    if (source_rates[i] == 0.0) continue;
    // Push this source's rate up the path to the sink; bound the walk by n
    // to detect cycles.
    std::size_t hop = tree.parent[i];
    std::size_t steps = 0;
    while (hop != kNoParent) {
      if (hop >= n || ++steps > n) {
        throw std::invalid_argument("aggregate_rates: malformed routing tree");
      }
      rates[hop] += source_rates[i];
      hop = tree.parent[hop];
    }
  }
  return rates;
}

std::vector<double> dimension_mu_for_loss(const std::vector<double>& node_rates,
                                          std::uint64_t buffer_slots,
                                          double target_loss) {
  std::vector<double> mus;
  mus.reserve(node_rates.size());
  for (double lambda : node_rates) {
    mus.push_back(lambda > 0.0
                      ? mu_for_target_loss(lambda, buffer_slots, target_loss)
                      : 0.0);
  }
  return mus;
}

double expected_network_buffering(const std::vector<double>& node_rates,
                                  const std::vector<double>& node_mus) {
  if (node_rates.size() != node_mus.size()) {
    throw std::invalid_argument("expected_network_buffering: size mismatch");
  }
  double total = 0.0;
  for (std::size_t i = 0; i < node_rates.size(); ++i) {
    if (node_rates[i] == 0.0) continue;
    if (node_mus[i] <= 0.0) {
      throw std::invalid_argument(
          "expected_network_buffering: node with traffic but mu <= 0");
    }
    total += node_rates[i] / node_mus[i];
  }
  return total;
}

}  // namespace tempriv::queueing
