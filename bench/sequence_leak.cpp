// §2 design validation — why the application sequence number must travel
// encrypted.
//
// The paper's model encrypts (reading, app-seq, timestamp) and lets the
// adversary see only the sorted arrival process (§3.2). This bench runs
// the paper's RCAD scenario twice over the same traffic:
//
//   * the paper's design: the sink adversary works without sequence
//     numbers (baseline + adaptive estimators), and
//   * a broken deployment where the header leaks the per-flow sequence
//     number, enabling period regression + min-intercept phase recovery.
//
// Expected shape: for periodic sources the leak collapses the MSE by
// orders of magnitude at every traffic rate — random delays alone cannot
// protect a source whose schedule structure is exposed.

#include "bench_util.h"
#include "adversary/estimator.h"
#include "adversary/ground_truth.h"
#include "adversary/sequence_leak.h"
#include "core/discipline_spec.h"
#include "crypto/payload.h"
#include "metrics/table.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "workload/source.h"

int main() {
  using namespace tempriv;

  crypto::Speck64_128::Key key{};
  key.fill(0x55);
  const crypto::PayloadCodec codec(key);

  metrics::Table table({"1/lambda", "MSE sealed-seq (baseline adv)",
                        "MSE leaked-seq adversary",
                        "centered MSE sealed", "centered MSE leaked"});

  for (const double interarrival : {2.0, 4.0, 8.0, 16.0}) {
    sim::Simulator sim;
    auto built = net::Topology::paper_figure1();
    net::Network network(sim, std::move(built.topology),
                         core::DisciplineSpec::rcad_exponential(30.0, 10), {},
                         sim::RandomStream(0x5e9));
    adversary::BaselineAdversary sealed(1.0, 30.0);
    adversary::SequenceLeakAdversary leaky(
        1.0, 30.0, [&codec](const net::Packet& packet) {
          // Simulates the broken cleartext header; the adversary reads the
          // field, it does not hold the key.
          return codec.open(packet.payload)->app_seq;
        });
    adversary::GroundTruthRecorder truth(codec);
    network.add_sink_observer(&sealed);
    network.add_sink_observer(&leaky);
    network.add_sink_observer(&truth);

    std::vector<std::unique_ptr<workload::PeriodicSource>> sources;
    sim::RandomStream root(0xbeef);
    for (std::size_t i = 0; i < built.sources.size(); ++i) {
      sources.push_back(std::make_unique<workload::PeriodicSource>(
          network, codec, built.sources[i], root.split(i), interarrival, 1000));
      sources.back()->start(0.3 * static_cast<double>(i));
    }
    sim.run();

    const auto sealed_score = truth.score_flow(sealed, built.sources[0]);
    std::vector<adversary::Estimate> s1;
    for (const auto& est : leaky.estimates()) {
      if (est.flow == built.sources[0]) s1.push_back(est);
    }
    const auto leaky_score = truth.score_estimates(s1);
    auto centered = [](const metrics::MseAccumulator& score) {
      return score.mse() - score.bias() * score.bias();
    };
    table.add_numeric_row({interarrival, sealed_score.mse(), leaky_score.mse(),
                           centered(sealed_score), centered(leaky_score)},
                          1);
  }

  bench::emit("sequence_leak", table);
  return 0;
}
