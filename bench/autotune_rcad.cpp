// Ablation G — static RCAD vs online Erlang-tuned RCAD (extension).
//
// The paper dimensions 1/µ statically; the ErlangTunedRcad discipline
// applies §4's rule online from each node's measured arrival rate. Sweep
// the paper scenario's traffic rate and compare:
//
//   * privacy (baseline- and path-aware-adversary MSE for S1),
//   * latency, and
//   * preemptions per packet (the tuned node should hold them near the
//     α = 0.1 budget instead of collapsing into constant preemption).
//
// Expected shape: at low rates the tuned scheme delays far longer (more
// privacy at unchanged buffer pressure); at high rates it voluntarily
// shortens delays, trading some of static RCAD's preemption-driven MSE
// for a realized delay distribution that stays close to exponential.

#include <algorithm>
#include <memory>

#include "bench_util.h"
#include "adversary/estimator.h"
#include "adversary/ground_truth.h"
#include "core/discipline_spec.h"
#include "core/erlang_tuned.h"
#include "crypto/payload.h"
#include "metrics/table.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "workload/source.h"

namespace {

using namespace tempriv;

struct Outcome {
  double mse = 0.0;
  double latency = 0.0;
  double preemptions_per_packet = 0.0;
};

Outcome run(const core::DisciplineSpec& spec, double interarrival,
            double adversary_mean, std::uint64_t seed) {
  sim::Simulator sim;
  auto built = net::Topology::paper_figure1();
  net::Network network(sim, std::move(built.topology), spec, {},
                       sim::RandomStream(seed));
  crypto::Speck64_128::Key key{};
  key.fill(0x42);
  crypto::PayloadCodec codec(key);
  adversary::BaselineAdversary adv(1.0, adversary_mean);
  adversary::GroundTruthRecorder truth(codec);
  network.add_sink_observer(&adv);
  network.add_sink_observer(&truth);
  std::vector<std::unique_ptr<workload::PeriodicSource>> sources;
  sim::RandomStream root(seed + 1);
  for (std::size_t i = 0; i < built.sources.size(); ++i) {
    sources.push_back(std::make_unique<workload::PeriodicSource>(
        network, codec, built.sources[i], root.split(i), interarrival, 1000));
    sources.back()->start(0.25 * interarrival * static_cast<double>(i));
  }
  sim.run();
  Outcome outcome;
  outcome.mse = truth.score_flow(adv, built.sources[0]).mse();
  outcome.latency = truth.latency(built.sources[0]).mean();
  outcome.preemptions_per_packet =
      static_cast<double>(network.total_preemptions()) /
      static_cast<double>(network.packets_originated());
  return outcome;
}

}  // namespace

int main() {
  core::ErlangTunedRcad::Config tuned_config;
  tuned_config.capacity = 10;
  tuned_config.target_loss = 0.1;
  tuned_config.max_mean_delay = 120.0;

  metrics::Table table(
      {"1/lambda", "static MSE", "tuned MSE", "static latency",
       "tuned latency", "static preempt/pkt", "tuned preempt/pkt"});

  std::uint64_t seed = 8800;
  for (const double interarrival : {2.0, 4.0, 8.0, 16.0}) {
    // The adversary knows each deployment's configured/average delay rule
    // (Kerckhoff). For the tuned scheme the long-run mean at per-flow rate
    // λ is min(cap, ρ*/λ) on branches; use that as its knowledge.
    const Outcome static_outcome =
        run(core::DisciplineSpec::rcad_exponential(30.0, 10), interarrival,
            30.0, seed += 10);
    const double lambda = 1.0 / interarrival;
    const double rho_star = 7.5;  // E⁻¹(0.1, 10)
    const double tuned_mean = std::min(120.0, rho_star / lambda);
    const Outcome tuned =
        run(core::DisciplineSpec::custom(
                core::erlang_tuned_rcad_factory(tuned_config)),
            interarrival, tuned_mean, seed += 10);
    table.add_numeric_row({interarrival, static_outcome.mse, tuned.mse,
                           static_outcome.latency, tuned.latency,
                           static_outcome.preemptions_per_packet,
                           tuned.preemptions_per_packet},
                          2);
  }

  tempriv::bench::emit("autotune_rcad", table);
  return 0;
}
