// §2.1 — the adversary-placement argument, measured.
//
// The paper asserts the sink is the adversary's best position because all
// flows converge there. This bench pits the sink adversary against
// in-network eavesdroppers at three placements on the Figure-1 topology
// running RCAD at the paper's high-traffic operating point:
//
//   * mid-branch of S1 (early: few delays accumulated, but one flow only),
//   * the trunk junction (all flows, most of their delays accumulated),
//   * one hop before the sink (hears everything the sink hears, one τ early).
//
// Expected shape: in-network placements get *lower per-packet MSE on the
// flows they cover* (fewer random delays to invert) but cover fewer flows
// / fewer total packets; the sink maximizes coverage, which is the paper's
// point — and the trunk placements approach the sink's error anyway since
// most of the path's delay is already behind the packet.

#include <set>

#include "bench_util.h"
#include "adversary/eavesdropper.h"
#include "adversary/estimator.h"
#include "adversary/ground_truth.h"
#include "core/discipline_spec.h"
#include "crypto/payload.h"
#include "metrics/table.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "workload/source.h"

int main() {
  using namespace tempriv;

  constexpr double kMeanDelay = 30.0;
  constexpr std::size_t kSlots = 10;
  constexpr double kInterarrival = 2.0;
  constexpr std::uint32_t kPackets = 1000;

  sim::Simulator sim;
  auto built = net::Topology::paper_figure1();
  net::Network network(sim, std::move(built.topology),
                       core::DisciplineSpec::rcad_exponential(kMeanDelay, kSlots),
                       {}, sim::RandomStream(0x9a));

  crypto::Speck64_128::Key key{};
  key.fill(0x31);
  crypto::PayloadCodec codec(key);

  const auto s1_path = network.routing().path_to_sink(built.sources[0]);
  const net::NodeId mid_branch = s1_path[s1_path.size() / 2];
  const net::NodeId junction = s1_path[s1_path.size() - 5];  // before trunk
  const net::NodeId last_hop = s1_path[s1_path.size() - 2];

  const adversary::InNetworkEavesdropper::Config eve_config{1.0, kMeanDelay};
  adversary::InNetworkEavesdropper eve_branch(eve_config, network, {mid_branch});
  adversary::InNetworkEavesdropper eve_junction(eve_config, network, {junction});
  adversary::InNetworkEavesdropper eve_last(eve_config, network, {last_hop});
  adversary::BaselineAdversary sink_adv(1.0, kMeanDelay);
  adversary::GroundTruthRecorder truth(codec);
  network.add_sink_observer(&sink_adv);
  network.add_sink_observer(&truth);

  std::vector<std::unique_ptr<workload::PeriodicSource>> sources;
  sim::RandomStream root(0x77);
  for (std::size_t i = 0; i < built.sources.size(); ++i) {
    sources.push_back(std::make_unique<workload::PeriodicSource>(
        network, codec, built.sources[i], root.split(i), kInterarrival,
        kPackets));
    sources.back()->start(0.5 * static_cast<double>(i));
  }
  sim.run();

  metrics::Table table({"placement", "flows heard", "packets heard",
                        "MSE on heard packets"});
  auto add_eve = [&](const char* name,
                     const adversary::InNetworkEavesdropper& eve) {
    table.add_row({name, std::to_string(eve.flows_heard()),
                   std::to_string(eve.packets_heard()),
                   metrics::format_number(
                       truth.score_estimates(eve.estimates()).mse(), 1)});
  };
  add_eve("mid-branch of S1", eve_branch);
  add_eve("junction (trunk start)", eve_junction);
  add_eve("one hop before sink", eve_last);
  table.add_row({"sink (paper baseline)",
                 std::to_string(sink_adv.flows_observed()),
                 std::to_string(sink_adv.estimates().size()),
                 metrics::format_number(truth.score_all(sink_adv).mse(), 1)});

  tempriv::bench::emit("adversary_placement", table);
  return 0;
}
