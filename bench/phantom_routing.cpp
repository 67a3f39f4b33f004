// Composing spatial and temporal privacy — phantom routing (the authors'
// ICDCS'05 source-location scheme, cited as [11]) under the temporal-
// privacy adversary.
//
// Sweep the random-walk length W on a 10x10 grid (source in the far
// corner) with three forwarding disciplines. Two lessons:
//
//   1. Negative result: with constant per-hop delays, phantom routing adds
//      ZERO temporal privacy against a header-reading adversary — the
//      cleartext hop count reveals each packet's journey length exactly,
//      so x̂ = z − h·τ stays exact for every W.
//   2. With per-hop MAC jitter (delay no longer a function of the header)
//      or with RCAD, the walk's path-length variance does contribute,
//      stacking with the buffering-based temporal privacy.

#include "bench_util.h"
#include "adversary/estimator.h"
#include "adversary/ground_truth.h"
#include "core/discipline_spec.h"
#include "crypto/payload.h"
#include "metrics/table.h"
#include "net/network.h"
#include "net/phantom.h"
#include "sim/simulator.h"
#include "workload/source.h"

namespace {

using namespace tempriv;

struct Outcome {
  double mse = 0.0;
  double mean_latency = 0.0;
};

Outcome run(std::uint16_t walk, const core::DisciplineSpec& spec,
            double jitter, double known_mean_delay, std::uint64_t seed) {
  sim::Simulator sim;
  net::Network network(sim, net::Topology::grid(10, 10), spec,
                       {.hop_tx_delay = 1.0, .hop_jitter = jitter},
                       sim::RandomStream(seed));
  if (walk > 0) {
    network.set_hop_selector(phantom_routing_selector(
        network.topology(), network.routing(), walk));
  }
  crypto::Speck64_128::Key key{};
  key.fill(0x44);
  crypto::PayloadCodec codec(key);
  adversary::BaselineAdversary adv(1.0 + jitter / 2.0, known_mean_delay);
  adversary::GroundTruthRecorder truth(codec);
  network.add_sink_observer(&adv);
  network.add_sink_observer(&truth);
  workload::PeriodicSource source(network, codec, 99, sim::RandomStream(seed + 1),
                                  4.0, 800);
  source.start(0.0);
  sim.run();
  return {truth.score_all(adv).mse(), truth.latency(99).mean()};
}

}  // namespace

int main() {
  metrics::Table table({"walk W", "no-delay MSE", "no-delay+jitter MSE",
                        "RCAD MSE", "RCAD mean latency"});

  std::uint64_t seed = 4200;
  for (const std::uint16_t walk : {std::uint16_t{0}, std::uint16_t{4},
                                   std::uint16_t{10}, std::uint16_t{20}}) {
    const Outcome plain =
        run(walk, core::DisciplineSpec::immediate(), 0.0, 0.0, seed += 10);
    const Outcome jittered =
        run(walk, core::DisciplineSpec::immediate(), 1.0, 0.0, seed += 10);
    const Outcome rcad =
        run(walk, core::DisciplineSpec::rcad_exponential(30.0, 10), 0.0, 30.0,
            seed += 10);
    table.add_numeric_row({static_cast<double>(walk), plain.mse, jittered.mse,
                           rcad.mse, rcad.mean_latency},
                          2);
  }

  tempriv::bench::emit("phantom_routing", table);
  return 0;
}
