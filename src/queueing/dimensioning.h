#pragma once

#include <cstdint>
#include <vector>

namespace tempriv::queueing {

/// A routing tree in parent-array form: parent[i] is the next hop of node i
/// toward the sink; the sink's parent is kNoParent. Node ids are dense
/// 0..n-1. This mirrors the paper's §4 model: "message streams merge
/// progressively as they approach the sink", so a node's offered load is the
/// sum of its own source rate and everything its subtree generates.
inline constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

struct RoutingTree {
  std::vector<std::size_t> parent;  ///< parent[i] = next hop; sink -> kNoParent

  std::size_t size() const noexcept { return parent.size(); }
};

/// Per-node aggregate arrival rate λᵢ: superposition of the Poisson flows of
/// all sources whose path passes through node i (including node i's own
/// source rate). Throws std::invalid_argument on malformed trees (cycles,
/// out-of-range parents, size mismatch).
std::vector<double> aggregate_rates(const RoutingTree& tree,
                                    const std::vector<double>& source_rates);

/// Paper §4 dimensioning: per-node service rate µᵢ such that every node's
/// M/M/k/k drop probability is the target α, given per-node buffer size k.
/// Nodes with zero traffic get µ = 0 (they never delay anything). §3.3's
/// other way to relieve the loaded trunk, weighting each node's mean delay
/// by its distance from the sink, is a scenario knob, not a queueing rule:
/// PaperScenario::sink_weighting, applied by node_specs() in
/// workload/scenario.cpp.
std::vector<double> dimension_mu_for_loss(const std::vector<double>& node_rates,
                                          std::uint64_t buffer_slots,
                                          double target_loss);

/// Expected total buffered packets across the whole network under M/M/∞:
/// Σᵢ ρᵢ = Σᵢ λᵢ/µᵢ (nodes with µᵢ = 0 and λᵢ = 0 contribute nothing).
double expected_network_buffering(const std::vector<double>& node_rates,
                                  const std::vector<double>& node_mus);

}  // namespace tempriv::queueing
