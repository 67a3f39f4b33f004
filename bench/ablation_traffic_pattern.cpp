// Ablation F — traffic pattern. The paper's evaluation uses periodic
// sources; its analysis (§3–§4) assumes Poisson. This bench runs the same
// privacy pipeline (single 15-hop path, Exp(30) delays, k = 10 RCAD)
// under three creation processes at the SAME average rate and compares
// privacy and buffer pressure:
//
//   * periodic (the paper's simulation),
//   * Poisson (the paper's analysis),
//   * ON/OFF bursty (a lingering animal / passing convoy).
//
// Expected shape: at equal average rate, burstiness concentrates arrivals,
// so RCAD preempts far more (the effective delays collapse during bursts)
// — baseline-adversary MSE rises, and the spread between quiet-period and
// burst-period latencies grows.

#include <memory>

#include "bench_util.h"
#include "adversary/estimator.h"
#include "adversary/ground_truth.h"
#include "core/discipline_spec.h"
#include "crypto/payload.h"
#include "metrics/table.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "workload/burst_source.h"
#include "workload/source.h"

namespace {

using namespace tempriv;

struct Outcome {
  double mse = 0.0;
  double mean_latency = 0.0;
  double max_latency = 0.0;
  std::uint64_t preemptions = 0;
};

template <typename MakeSource>
Outcome run_pattern(MakeSource&& make_source, std::uint64_t seed) {
  sim::Simulator sim;
  net::Network network(sim, net::Topology::line(16),  // 15 hops like S1
                       core::DisciplineSpec::rcad_exponential(30.0, 10), {},
                       sim::RandomStream(seed));
  crypto::Speck64_128::Key key{};
  key.fill(0x21);
  crypto::PayloadCodec codec(key);
  adversary::BaselineAdversary adv(1.0, 30.0);
  adversary::GroundTruthRecorder truth(codec);
  network.add_sink_observer(&adv);
  network.add_sink_observer(&truth);

  auto source = make_source(network, codec, seed);
  source->start(0.0);
  sim.run();

  Outcome outcome;
  outcome.mse = truth.score_all(adv).mse();
  outcome.mean_latency = truth.latency(0).mean();
  outcome.max_latency = truth.latency(0).max();
  outcome.preemptions = network.total_preemptions();
  return outcome;
}

}  // namespace

int main() {
  constexpr double kRate = 0.5;  // packets per time unit, all patterns
  constexpr std::uint32_t kPackets = 4000;

  metrics::Table table({"creation process (avg rate 0.5)", "adversary MSE",
                        "mean latency", "max latency", "preemptions"});

  const Outcome periodic = run_pattern(
      [&](net::Network& net, const crypto::PayloadCodec& codec, std::uint64_t seed) {
        return std::make_unique<workload::PeriodicSource>(
            net, codec, 0, sim::RandomStream(seed + 1), 1.0 / kRate, kPackets);
      },
      3100);
  const Outcome poisson = run_pattern(
      [&](net::Network& net, const crypto::PayloadCodec& codec, std::uint64_t seed) {
        return std::make_unique<workload::PoissonSource>(
            net, codec, 0, sim::RandomStream(seed + 1), kRate, kPackets);
      },
      3200);
  const Outcome bursty = run_pattern(
      [&](net::Network& net, const crypto::PayloadCodec& codec, std::uint64_t seed) {
        workload::BurstSource::Config config;
        config.burst_rate = 2.5;     // rate while ON
        config.mean_on_time = 20.0;  // avg = 2.5 * 20/(20+80) = 0.5
        config.mean_off_time = 80.0;
        config.count = kPackets;
        return std::make_unique<workload::BurstSource>(
            net, codec, 0, sim::RandomStream(seed + 1), config);
      },
      3300);

  auto add = [&table](const char* name, const Outcome& o) {
    table.add_row({name, tempriv::metrics::format_number(o.mse, 1),
                   tempriv::metrics::format_number(o.mean_latency, 1),
                   tempriv::metrics::format_number(o.max_latency, 1),
                   std::to_string(o.preemptions)});
  };
  add("periodic (paper sim)", periodic);
  add("Poisson (paper analysis)", poisson);
  add("ON/OFF bursty", bursty);

  tempriv::bench::emit("ablation_traffic_pattern", table);
  return 0;
}
