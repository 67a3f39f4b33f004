#pragma once

#include <vector>

#include "adversary/estimator.h"
#include "net/routing.h"
#include "net/topology.h"

namespace tempriv::adversary {

/// Extension beyond the paper's §5.4 adversary: a *path-aware* adversary.
///
/// The paper's adaptive adversary applies one delay rule to every hop of a
/// flow. But by Kerckhoff the adversary also knows the topology and the
/// routing tree, and it observes every flow's rate at the sink — so it can
/// attribute traffic to individual nodes and model RCAD per node:
///
///   λ̂(n)   = Σ over observed flows f whose path crosses n of λ̂(f)
///   delay(n) = E(λ̂(n)/µ, k) > α  ?  min(1/µ, k/λ̂(n))  :  1/µ
///   x̂       = z − Σ_{n on flow's path, n ≠ sink} (τ + delay(n))
///
/// On partially-shared topologies (like the paper's Figure 1) this fixes
/// the adaptive adversary's blind spot: heavily-aggregated trunk nodes
/// hold packets much more briefly (≈ k/λtot) than lightly-loaded branch
/// nodes (≈ k/λᵢ), and summing per-node estimates tracks the true latency
/// far more closely. Defenders should evaluate against this adversary;
/// see `tempriv-campaign adversaries` (tests/golden/
/// ablation_adversary_models.csv).
class PathAwareAdversary final : public Adversary {
 public:
  struct Config {
    double hop_tx_delay = 1.0;
    double mean_delay_per_hop = 30.0;  ///< 1/µ of the deployed scheme
    std::size_t buffer_slots = 10;     ///< k of the deployed scheme
    double loss_threshold = 0.1;       ///< per-node Erlang regime test
  };

  /// `topology` and `routing` describe the deployment the adversary has
  /// mapped out; both are kept by reference and must outlive the adversary.
  PathAwareAdversary(const Config& config, const net::Topology& topology,
                     const net::RoutingTable& routing);

 protected:
  double estimate_creation(const net::RoutingHeader& header, double arrival,
                           const FlowObservation& obs) override;

 private:
  const std::vector<net::NodeId>& path_of(net::NodeId flow);

  /// Refreshes the per-node rate attribution after flow `flow`'s observed
  /// rate changed to `rate`. Only `flow`'s own rate moves per delivery, so
  /// only the nodes on its path need new sums; each affected node re-sums
  /// its crossing flows' cached rates in ascending flow order — the same
  /// operands in the same order as a full recompute over every observed
  /// flow, so the attribution stays bit-identical while the per-delivery
  /// cost drops from O(flows × path) to O(path × flows-per-path-node).
  void update_flow_rate(net::NodeId flow, double rate);

  Config config_;
  /// Certified `erlang_loss(rho, k) > loss_threshold`: one comparison per
  /// path node per delivery instead of the k-divide recurrence.
  queueing::ErlangLossThreshold erlang_test_;
  const net::Topology& topology_;
  const net::RoutingTable& routing_;
  std::vector<std::vector<net::NodeId>> path_cache_;  // index = flow origin
  std::vector<char> path_cached_;
  std::vector<double> rates_;      // index = NodeId; updated incrementally
  std::vector<double> flow_rate_;  // index = flow origin; last observed rate
  std::vector<char> flow_known_;   // flow already entered in node_flows_
  /// For each node, the routable flows whose path crosses it, ascending.
  std::vector<std::vector<net::NodeId>> node_flows_;
};

}  // namespace tempriv::adversary
