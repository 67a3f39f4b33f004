// End-to-end properties of the privacy pipeline that cut across modules:
// the adversary's structural blindness to payload contents, conservation of
// packets under every discipline, and the §3.3 delay-decomposition option.

#include <gtest/gtest.h>

#include "adversary/estimator.h"
#include "adversary/ground_truth.h"
#include "core/discipline_spec.h"
#include "crypto/payload.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "workload/scenario.h"
#include "workload/source.h"

namespace tempriv {
namespace {

TEST(PrivacyPipeline, AdversaryEstimatesAreIndependentOfPayloadKey) {
  // Structural blindness: re-running the identical scenario with a network
  // that seals payloads under a different key must give the adversary the
  // exact same observations and estimates, because everything it uses is
  // cleartext. (The key used inside run_paper_scenario is fixed, so here we
  // drive the network manually with two codecs.)
  auto run_with_key = [](std::uint8_t key_byte) {
    sim::Simulator sim;
    crypto::Speck64_128::Key key{};
    key.fill(key_byte);
    crypto::PayloadCodec codec(key);
    net::Network network(sim, net::Topology::line(8),
                         core::DisciplineSpec::rcad_exponential(20.0, 5), {},
                         sim::RandomStream(51));
    adversary::BaselineAdversary adv(1.0, 20.0);
    network.add_sink_observer(&adv);
    workload::PeriodicSource source(network, codec, 0, sim::RandomStream(52),
                                    3.0, 200);
    source.start(0.0);
    sim.run();
    return adv.estimates();
  };

  const auto estimates_a = run_with_key(0x11);
  const auto estimates_b = run_with_key(0x77);
  ASSERT_EQ(estimates_a.size(), estimates_b.size());
  for (std::size_t i = 0; i < estimates_a.size(); ++i) {
    EXPECT_DOUBLE_EQ(estimates_a[i].arrival, estimates_b[i].arrival);
    EXPECT_DOUBLE_EQ(estimates_a[i].estimated_creation,
                     estimates_b[i].estimated_creation);
  }
}

TEST(PrivacyPipeline, EveryDisciplineConservesOrAccountsForAllPackets) {
  for (const workload::Scheme scheme :
       {workload::Scheme::kNoDelay, workload::Scheme::kUnlimitedDelay,
        workload::Scheme::kDropTail, workload::Scheme::kRcad}) {
    workload::PaperScenario scenario;
    scenario.scheme = scheme;
    scenario.interarrival = 2.0;
    scenario.packets_per_source = 100;
    const auto result = run_paper_scenario(scenario);
    EXPECT_EQ(result.delivered + result.drops, result.originated)
        << to_string(scheme);
  }
}

TEST(PrivacyPipeline, AllVictimPoliciesDeliverEverything) {
  for (const core::VictimPolicy policy :
       {core::VictimPolicy::kShortestRemaining,
        core::VictimPolicy::kLongestRemaining, core::VictimPolicy::kRandom,
        core::VictimPolicy::kOldest}) {
    workload::PaperScenario scenario;
    scenario.scheme = workload::Scheme::kRcad;
    scenario.victim = policy;
    scenario.interarrival = 2.0;
    scenario.packets_per_source = 100;
    const auto result = run_paper_scenario(scenario);
    EXPECT_EQ(result.delivered, result.originated) << to_string(policy);
    EXPECT_GT(result.preemptions, 0u) << to_string(policy);
  }
}

TEST(PrivacyPipeline, ShortestRemainingVictimStaysClosestToIntendedDelays) {
  // The paper's rationale for the victim rule: preempting the packet with
  // the shortest remaining delay perturbs the realized delay distribution
  // least. Its mean end-to-end latency must therefore sit closest to (and
  // below) the configured profile compared with longest-remaining.
  auto run_policy = [](core::VictimPolicy policy) {
    workload::PaperScenario scenario;
    scenario.scheme = workload::Scheme::kRcad;
    scenario.victim = policy;
    scenario.interarrival = 4.0;
    scenario.packets_per_source = 300;
    return run_paper_scenario(scenario);
  };
  const auto shortest = run_policy(core::VictimPolicy::kShortestRemaining);
  const auto longest = run_policy(core::VictimPolicy::kLongestRemaining);
  // Preempting long-remaining packets truncates the delay tail harder, so
  // its realized latency drops further below the intended distribution.
  EXPECT_GT(shortest.flows[0].mean_latency, longest.flows[0].mean_latency);
}

TEST(PrivacyPipeline, SinkWeightingShiftsBufferLoadAwayFromTrunk) {
  // §3.3: pushing delay toward the far-from-sink nodes relieves the shared
  // trunk, where flows superpose. Compare trunk preemption counts.
  auto run_weighting = [](double weighting) {
    workload::PaperScenario scenario;
    scenario.scheme = workload::Scheme::kRcad;
    scenario.sink_weighting = weighting;
    scenario.interarrival = 3.0;
    scenario.packets_per_source = 300;
    return run_paper_scenario(scenario);
  };
  const auto uniform = run_weighting(0.0);
  const auto weighted = run_weighting(1.0);
  // Both deliver everything; the weighted variant must not be *worse* in
  // delivery, and it redistributes preemptions.
  EXPECT_EQ(uniform.delivered, uniform.originated);
  EXPECT_EQ(weighted.delivered, weighted.originated);
  EXPECT_NE(uniform.preemptions, weighted.preemptions);
}

TEST(PrivacyPipeline, LongerFlowsEnjoyMorePrivacyUnderUnlimitedDelay) {
  // With per-hop i.i.d. delays the estimator variance grows with hop count:
  // MSE(S2, 22 hops) > MSE(S3, 9 hops).
  workload::PaperScenario scenario;
  scenario.scheme = workload::Scheme::kUnlimitedDelay;
  scenario.interarrival = 5.0;
  scenario.packets_per_source = 400;
  const auto result = run_paper_scenario(scenario);
  EXPECT_GT(result.flows[1].mse_baseline, result.flows[2].mse_baseline);
}

TEST(PrivacyPipeline, GroundTruthLatencyEqualsArrivalMinusCreation) {
  // Cross-check the recorder against first principles for a no-delay run.
  sim::Simulator sim;
  crypto::Speck64_128::Key key{};
  key.fill(0x42);
  crypto::PayloadCodec codec(key);
  net::Network network(sim, net::Topology::line(5),
                       core::DisciplineSpec::immediate(),
                       {}, sim::RandomStream(61));
  adversary::GroundTruthRecorder truth(codec);
  network.add_sink_observer(&truth);
  workload::PeriodicSource source(network, codec, 0, sim::RandomStream(62),
                                  10.0, 50);
  source.start(0.0);
  sim.run();
  EXPECT_EQ(truth.delivered(), 50u);
  EXPECT_DOUBLE_EQ(truth.latency(0).mean(), 4.0);
  EXPECT_DOUBLE_EQ(truth.latency(0).max(), 4.0);
}

}  // namespace
}  // namespace tempriv
