// Tactical multi-flow network with Erlang-dimensioned privacy delays.
//
// Four forward observation posts report through the paper's Figure-1
// topology. Instead of one network-wide mean delay, each node's delay is
// dimensioned from the §4 queueing analysis: given its aggregated traffic
// λᵢ (flows superpose toward the sink) and its k buffer slots, the node
// uses the largest mean delay 1/µᵢ that keeps its predicted Erlang-loss
// preemption probability at α — maximum temporal privacy per node within a
// fixed buffer-pressure budget.
//
// The example wires the queueing module into per-node DisciplineSpecs
// (per-node parameters, not just per-hop-count), runs both adversaries of
// the paper, and reports per-flow privacy and latency.

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "adversary/estimator.h"
#include "adversary/ground_truth.h"
#include "core/discipline_spec.h"
#include "crypto/payload.h"
#include "metrics/table.h"
#include "net/network.h"
#include "net/routing.h"
#include "queueing/dimensioning.h"
#include "sim/simulator.h"
#include "workload/source.h"

int main() {
  using namespace tempriv;

  constexpr double kSourceRate = 0.5;   // one report every 2 time units
  constexpr std::size_t kSlots = 10;    // Mica-2-sized buffers
  constexpr double kTargetLoss = 0.1;   // per-node preemption budget
  constexpr std::uint32_t kPackets = 1000;

  // Build the topology first so the dimensioning can see the routing tree.
  auto built = net::Topology::paper_figure1();
  const net::RoutingTable routing(built.topology);

  queueing::RoutingTree tree;
  tree.parent.resize(built.topology.node_count());
  std::vector<double> source_rates(built.topology.node_count(), 0.0);
  for (net::NodeId id = 0; id < built.topology.node_count(); ++id) {
    const net::NodeId next = routing.next_hop(id);
    tree.parent[id] = next == net::kInvalidNode
                          ? queueing::kNoParent
                          : static_cast<std::size_t>(next);
  }
  for (const net::NodeId source : built.sources) {
    source_rates[source] = kSourceRate;
  }
  const auto node_rates = queueing::aggregate_rates(tree, source_rates);
  const auto node_mus =
      queueing::dimension_mu_for_loss(node_rates, kSlots, kTargetLoss);
  // The sink (the tree's root) delivers at once and buffers nothing, so
  // only the forwarding nodes count toward the expected occupancy.
  std::vector<double> forwarding_rates = node_rates;
  for (std::size_t id = 0; id < tree.parent.size(); ++id) {
    if (tree.parent[id] == queueing::kNoParent) forwarding_rates[id] = 0.0;
  }

  std::cout << "Erlang-dimensioned per-node delays (alpha = " << kTargetLoss
            << ", k = " << kSlots << "):\n"
            << "  branch nodes (lambda = 0.5): 1/mu = "
            << metrics::format_number(1.0 / node_mus[built.sources[0]], 1)
            << "\n  trunk nodes  (lambda = 2.0): 1/mu = "
            << metrics::format_number(
                   1.0 / node_mus[routing.next_hop(
                             routing.path_to_sink(built.sources[0])
                                 [routing.hops_to_sink(built.sources[0]) - 3])],
                   1)
            << "\n  expected buffered packets network-wide: "
            << metrics::format_number(
                   queueing::expected_network_buffering(forwarding_rates,
                                                        node_mus),
                   1)
            << "\n\n";

  // Per-node RCAD disciplines from the dimensioned µ values.
  sim::Simulator sim;
  const net::NodeSpecs specs = [&node_mus, kSlots](net::NodeId id,
                                                   std::uint16_t) {
    return node_mus[id] <= 0.0
               ? core::DisciplineSpec::immediate()
               : core::DisciplineSpec::rcad_exponential(1.0 / node_mus[id],
                                                        kSlots);
  };
  net::Network network(sim, built.topology, specs, {},
                       sim::RandomStream(404));

  crypto::Speck64_128::Key key{};
  key.fill(0xCD);
  crypto::PayloadCodec codec(key);

  // The adversaries know the *average* per-hop delay along S1's path
  // (Kerckhoff: the dimensioning rule is public).
  double mean_delay_s1 = 0.0;
  const auto path = routing.path_to_sink(built.sources[0]);
  for (const net::NodeId node : path) {
    if (node != built.topology.sink()) mean_delay_s1 += 1.0 / node_mus[node];
  }
  mean_delay_s1 /= static_cast<double>(routing.hops_to_sink(built.sources[0]));

  adversary::BaselineAdversary baseline(1.0, mean_delay_s1);
  adversary::AdaptiveAdversary adaptive({1.0, mean_delay_s1, kSlots, 0.1});
  adversary::GroundTruthRecorder truth(codec);
  network.add_sink_observer(&baseline);
  network.add_sink_observer(&adaptive);
  network.add_sink_observer(&truth);

  std::vector<std::unique_ptr<workload::PeriodicSource>> sources;
  sim::RandomStream root(808);
  for (std::size_t i = 0; i < built.sources.size(); ++i) {
    sources.push_back(std::make_unique<workload::PeriodicSource>(
        network, codec, built.sources[i], root.split(i), 1.0 / kSourceRate,
        kPackets));
    sources.back()->start(0.25 * static_cast<double>(i));
  }
  sim.run();

  metrics::Table table({"flow", "hops", "MSE (baseline adv)",
                        "MSE (adaptive adv)", "mean latency", "max latency"});
  for (std::size_t i = 0; i < built.sources.size(); ++i) {
    const net::NodeId source = built.sources[i];
    // Appended rather than "S" + std::to_string(...): GCC 12 at -O3 flags the
    // inlined operator+ with a -Werror=restrict false positive.
    std::string flow = "S";
    flow += std::to_string(i + 1);
    table.add_row(
        {flow,
         std::to_string(routing.hops_to_sink(source)),
         metrics::format_number(truth.score_flow(baseline, source).mse(), 1),
         metrics::format_number(truth.score_flow(adaptive, source).mse(), 1),
         metrics::format_number(truth.latency(source).mean(), 1),
         metrics::format_number(truth.latency(source).max(), 1)});
  }
  table.print(std::cout);

  std::cout << "\npreemptions: " << network.total_preemptions()
            << ", drops: " << network.total_drops() << ", delivered "
            << network.packets_delivered() << "/"
            << network.packets_originated() << "\n";
  return 0;
}
