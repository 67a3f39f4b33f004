// Habitat monitoring — the paper's §1 motivating scenario, end to end.
//
// An endangered animal roams a field instrumented with a 12x12 sensor
// grid. Whenever a sensing epoch elapses, the nearest sensor reports the
// observation (encrypted) to the sink. A hunter eavesdropping at the sink
// knows every sensor's position (deployment-aware) and sees which sensor a
// packet came from, so if he can also pin down *when* the packet was
// created he knows where the animal was at that moment and can predict
// where it is now.
//
// We quantify the hunter's power as his *spatial tracking error*: the
// distance between the animal's true position at the packet's estimated
// creation time and its true position at the actual creation time. With no
// privacy delays the estimate is exact and the error is zero; RCAD's
// temporal ambiguity converts directly into spatial ambiguity (error grows
// with the animal's speed times the adversary's time error, saturating at
// the field scale).

#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "adversary/estimator.h"
#include "adversary/ground_truth.h"
#include "core/discipline_spec.h"
#include "crypto/payload.h"
#include "metrics/stats.h"
#include "metrics/table.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "workload/mobile_asset.h"
#include "workload/scenario.h"

namespace {

using namespace tempriv;

// The animal's true position at time t, from the recorded track (nearest
// sample; the track is sampled every sense epoch, so this is accurate to
// one epoch of movement).
net::Position asset_position_at(
    const std::vector<workload::MobileAssetWorkload::TrackPoint>& track,
    double t) {
  const workload::MobileAssetWorkload::TrackPoint* best = &track.front();
  for (const auto& point : track) {
    if (std::fabs(point.time - t) < std::fabs(best->time - t)) best = &point;
  }
  return {best->x, best->y};
}

struct HuntOutcome {
  double mean_time_error = 0.0;
  double mean_spatial_error = 0.0;
  double delivered = 0.0;
};

HuntOutcome run_hunt(const core::DisciplineSpec& spec,
                     double known_mean_delay) {
  sim::Simulator sim;
  net::Network network(sim, net::Topology::grid(12, 12, 2.0), spec, {},
                       sim::RandomStream(2026));

  crypto::Speck64_128::Key key{};
  key.fill(0xAB);
  crypto::PayloadCodec codec(key);

  adversary::BaselineAdversary hunter(1.0, known_mean_delay);
  adversary::GroundTruthRecorder truth(codec);
  network.add_sink_observer(&hunter);
  network.add_sink_observer(&truth);

  workload::MobileAssetWorkload::Config config;
  config.field_side = 22.0;  // matches the 12x12 grid at spacing 2
  config.speed = 0.4;
  config.sense_interval = 4.0;
  config.duration = 4000.0;
  workload::MobileAssetWorkload animal(network, codec, config,
                                       sim::RandomStream(7));
  animal.start();
  sim.run();

  HuntOutcome outcome;
  metrics::StreamingStats time_error;
  metrics::StreamingStats spatial_error;
  for (const auto& estimate : hunter.estimates()) {
    const auto* record = truth.find(estimate.uid);
    time_error.add(std::fabs(estimate.estimated_creation - record->creation));
    const net::Position truth_pos =
        asset_position_at(animal.track(), record->creation);
    const net::Position guessed_pos =
        asset_position_at(animal.track(), estimate.estimated_creation);
    spatial_error.add(std::hypot(truth_pos.x - guessed_pos.x,
                                 truth_pos.y - guessed_pos.y));
  }
  outcome.mean_time_error = time_error.mean();
  outcome.mean_spatial_error = spatial_error.mean();
  outcome.delivered = static_cast<double>(truth.delivered());
  return outcome;
}

}  // namespace

int main() {
  std::cout << "Habitat monitoring: a hunter tracking an animal through the\n"
               "arrival times of (encrypted) sensor reports.\n\n";

  constexpr double kMeanDelay = 30.0;
  constexpr std::size_t kSlots = 10;

  metrics::Table table({"scheme", "mean |time error|", "mean spatial error",
                        "packets"});
  struct Case {
    const char* name;
    core::DisciplineSpec spec;
    double known_mean;
  };
  const Case cases[] = {
      {"no-delay", core::DisciplineSpec::immediate(), 0.0},
      {"unlimited Exp(30)",
       core::DisciplineSpec::unlimited_exponential(kMeanDelay), kMeanDelay},
      {"RCAD Exp(30), k=10",
       core::DisciplineSpec::rcad_exponential(kMeanDelay, kSlots), kMeanDelay},
  };
  for (const Case& c : cases) {
    const HuntOutcome outcome = run_hunt(c.spec, c.known_mean);
    table.add_row({c.name, metrics::format_number(outcome.mean_time_error, 2),
                   metrics::format_number(outcome.mean_spatial_error, 2),
                   metrics::format_number(outcome.delivered, 0)});
  }
  table.print(std::cout);

  std::cout << "\nTemporal ambiguity becomes spatial ambiguity: the hunter's\n"
               "position error grows with his creation-time error, so the\n"
               "delaying schemes blur the animal's track.\n";
  return 0;
}
