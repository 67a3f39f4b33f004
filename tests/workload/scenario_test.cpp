#include "workload/scenario.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

namespace tempriv::workload {
namespace {

// Small packet counts keep these integration tests fast; the bench
// harness runs the paper's full 1000-packet configuration.
PaperScenario fast_scenario(Scheme scheme, double interarrival) {
  PaperScenario scenario;
  scenario.scheme = scheme;
  scenario.interarrival = interarrival;
  scenario.packets_per_source = 150;
  return scenario;
}

TEST(PaperScenario, NoDelayDeliversEverythingAtHopLatency) {
  const auto result = run_paper_scenario(fast_scenario(Scheme::kNoDelay, 5.0));
  EXPECT_EQ(result.originated, 4u * 150u);
  EXPECT_EQ(result.delivered, result.originated);
  EXPECT_EQ(result.preemptions, 0u);
  EXPECT_EQ(result.drops, 0u);
  ASSERT_EQ(result.flows.size(), 4u);
  // Latency is exactly hops * tau and MSE is (numerically) zero.
  EXPECT_DOUBLE_EQ(result.flows[0].mean_latency, 15.0);
  EXPECT_DOUBLE_EQ(result.flows[1].mean_latency, 22.0);
  EXPECT_DOUBLE_EQ(result.flows[2].mean_latency, 9.0);
  EXPECT_DOUBLE_EQ(result.flows[3].mean_latency, 11.0);
  for (const auto& flow : result.flows) {
    EXPECT_NEAR(flow.mse_baseline, 0.0, 1e-15);
    EXPECT_EQ(flow.delivered, 150u);
  }
}

TEST(PaperScenario, UnlimitedDelayLatencyMatchesTheory) {
  const auto result =
      run_paper_scenario(fast_scenario(Scheme::kUnlimitedDelay, 5.0));
  EXPECT_EQ(result.delivered, result.originated);
  EXPECT_EQ(result.preemptions, 0u);
  // E[latency] = h(tau + 1/mu) = 15 * 31 = 465 for S1; allow sampling slack.
  EXPECT_NEAR(result.flows[0].mean_latency, 465.0, 465.0 * 0.10);
  // MSE ~ h / mu^2 = 15 * 900 = 13500 (variance of the summed delays).
  EXPECT_NEAR(result.flows[0].mse_baseline, 13500.0, 13500.0 * 0.35);
}

TEST(PaperScenario, RcadDeliversEverythingDespiteFullBuffers) {
  const auto result = run_paper_scenario(fast_scenario(Scheme::kRcad, 2.0));
  EXPECT_EQ(result.delivered, result.originated);
  EXPECT_EQ(result.drops, 0u);
  EXPECT_GT(result.preemptions, 0u);
}

TEST(PaperScenario, DropTailLosesPacketsAtOverload) {
  const auto result = run_paper_scenario(fast_scenario(Scheme::kDropTail, 2.0));
  EXPECT_GT(result.drops, 0u);
  EXPECT_EQ(result.preemptions, 0u);
  EXPECT_LT(result.delivered, result.originated);
}

TEST(PaperScenario, TraceCountsEveryTransmissionAndEveryPacket) {
  // Unlimited buffers lose nothing: each packet crosses its flow's hop
  // count of links and leaves its origin once.
  PaperScenario unlimited = fast_scenario(Scheme::kUnlimitedDelay, 2.0);
  unlimited.trace = true;
  const auto lossless = run_paper_scenario(unlimited);
  EXPECT_EQ(lossless.transmissions, (15u + 22u + 9u + 11u) * 150u);
  EXPECT_EQ(lossless.packets_traced, 4u * 150u);

  // Drop-tail at overload loses packets part-way, so fewer links carry
  // them. Every packet a forwarding node handles is transmitted unless the
  // node drops it, so the probe's count is the engine's handled - dropped.
  PaperScenario droptail = fast_scenario(Scheme::kDropTail, 2.0);
  droptail.trace = true;
  const auto lossy = run_paper_scenario(droptail);
  ASSERT_GT(lossy.drops, 0u);
  EXPECT_LT(lossy.transmissions, (15u + 22u + 9u + 11u) * 150u);
  EXPECT_EQ(lossy.transmissions, lossy.telemetry.forward_immediate +
                                     lossy.telemetry.forward_buffered -
                                     lossy.drops);
  EXPECT_LE(lossy.packets_traced, lossy.originated);
  EXPECT_GE(lossy.packets_traced, lossy.delivered);

  // Untraced runs report no counts.
  const auto untraced = run_paper_scenario(fast_scenario(Scheme::kDropTail, 2.0));
  EXPECT_EQ(untraced.transmissions, 0u);
  EXPECT_EQ(untraced.packets_traced, 0u);
  EXPECT_EQ(untraced.drops, lossy.drops);
}

TEST(PaperScenario, Figure2aOrdering_RcadBeatsBothBaselinesAtHighRate) {
  // The qualitative content of Fig. 2(a) at 1/lambda = 2: case 3 (RCAD)
  // MSE dwarfs cases 1 and 2.
  const auto no_delay = run_paper_scenario(fast_scenario(Scheme::kNoDelay, 2.0));
  const auto unlimited =
      run_paper_scenario(fast_scenario(Scheme::kUnlimitedDelay, 2.0));
  const auto rcad = run_paper_scenario(fast_scenario(Scheme::kRcad, 2.0));
  EXPECT_LT(no_delay.flows[0].mse_baseline, 1e-9);
  EXPECT_GT(rcad.flows[0].mse_baseline, 2.0 * unlimited.flows[0].mse_baseline);
}

TEST(PaperScenario, Figure2bOrdering_LatencyNoDelayBelowRcadBelowUnlimited) {
  const auto no_delay = run_paper_scenario(fast_scenario(Scheme::kNoDelay, 2.0));
  const auto unlimited =
      run_paper_scenario(fast_scenario(Scheme::kUnlimitedDelay, 2.0));
  const auto rcad = run_paper_scenario(fast_scenario(Scheme::kRcad, 2.0));
  EXPECT_LT(no_delay.flows[0].mean_latency, rcad.flows[0].mean_latency);
  EXPECT_LT(rcad.flows[0].mean_latency, unlimited.flows[0].mean_latency);
}

TEST(PaperScenario, Figure3_AdaptiveAdversaryReducesButDoesNotEliminateError) {
  // Needs enough packets for the adversary's windowed rate estimate to
  // converge past the startup transient (the bench uses the paper's 1000).
  auto scenario = fast_scenario(Scheme::kRcad, 2.0);
  scenario.packets_per_source = 600;
  const auto rcad = run_paper_scenario(scenario);
  EXPECT_LT(rcad.flows[0].mse_adaptive, 0.7 * rcad.flows[0].mse_baseline);
  EXPECT_GT(rcad.flows[0].mse_adaptive, 0.0);
}

TEST(PaperScenario, PreemptionsVanishAtLowTraffic) {
  // At 1/lambda = 20 per flow the buffers barely fill (rho ~ 1.5 per branch
  // node) and RCAD behaves like unlimited delaying.
  const auto slow = run_paper_scenario(fast_scenario(Scheme::kRcad, 20.0));
  const auto fast = run_paper_scenario(fast_scenario(Scheme::kRcad, 2.0));
  EXPECT_LT(slow.preemptions, fast.preemptions / 5);
}

TEST(PaperScenario, DeterministicForFixedSeed) {
  const auto a = run_paper_scenario(fast_scenario(Scheme::kRcad, 3.0));
  const auto b = run_paper_scenario(fast_scenario(Scheme::kRcad, 3.0));
  EXPECT_DOUBLE_EQ(a.flows[0].mse_baseline, b.flows[0].mse_baseline);
  EXPECT_DOUBLE_EQ(a.flows[0].mean_latency, b.flows[0].mean_latency);
  EXPECT_EQ(a.preemptions, b.preemptions);
}

TEST(PaperScenario, SeedChangesResultButNotShape) {
  auto s1 = fast_scenario(Scheme::kRcad, 3.0);
  auto s2 = fast_scenario(Scheme::kRcad, 3.0);
  s2.seed = 999;
  const auto a = run_paper_scenario(s1);
  const auto b = run_paper_scenario(s2);
  EXPECT_NE(a.flows[0].mse_baseline, b.flows[0].mse_baseline);
  // Same order of magnitude though.
  EXPECT_GT(b.flows[0].mse_baseline, a.flows[0].mse_baseline / 10.0);
  EXPECT_LT(b.flows[0].mse_baseline, a.flows[0].mse_baseline * 10.0);
}

TEST(PaperScenario, SinkWeightedDecompositionRuns) {
  auto scenario = fast_scenario(Scheme::kRcad, 5.0);
  scenario.sink_weighting = 1.0;
  const auto result = run_paper_scenario(scenario);
  EXPECT_EQ(result.delivered, result.originated);
  EXPECT_GT(result.flows[0].mean_latency, 15.0);
}

// Pins the §3.3 sink-weighted runs bit for bit (recorded with %.17g): no
// golden CSV sets sink_weighting, so these are the only guard on how the
// per-node mean profile reaches the network.
TEST(PaperScenario, SinkWeightedResultsArePinned) {
  struct Flow {
    double mse_baseline, mse_adaptive, mean_latency;
  };
  struct Pinned {
    Scheme scheme;
    double weighting;
    std::uint64_t preemptions, events;
    Flow flows[4];
  };
  const Pinned pinned[] = {
      {Scheme::kUnlimitedDelay, 0.5, 0, 17700,
       {{13943.866075006123, 13943.866075006123, 470.55668382407504},
        {56222.430618915329, 56222.430618915329, 829.70917107108403},
        {7596.1347071189202, 7275.7508592337326, 242.65396540177781},
        {7764.6676071636266, 7525.3980295708579, 292.049085052213}}},
      {Scheme::kUnlimitedDelay, 1.0, 0, 17700,
       {{15966.099571284974, 15966.099571284974, 477.83636914880162},
        {151164.90893580465, 151164.90893580465, 995.14867247292318},
        {12265.20970419794, 11602.968453635012, 192.86341693936876},
        {13234.544716107124, 13131.60777603426, 254.32699433329404}}},
      {Scheme::kRcad, 0.5, 3661, 14039,
       {{21397.733930636925, 21397.733930636925, 405.1641675889968},
        {41953.80592748573, 41953.80592748573, 712.43972800308006},
        {9590.6969093603911, 8677.5261761009151, 211.73989489741635},
        {13858.240429529969, 13006.773936291338, 255.06316060307628}}},
      {Scheme::kRcad, 1.0, 2751, 14949,
       {{23216.941897310855, 23216.941897310855, 394.24708913045322},
        {85524.19692446808, 85089.893282283898, 772.21029265467746},
        {14881.408939091612, 14631.916232925918, 177.91368167611623},
        {17108.975644960337, 16641.466846707015, 236.14990345174527}}},
  };
  for (const Pinned& pin : pinned) {
    SCOPED_TRACE(testing::Message() << to_string(pin.scheme) << " weighting "
                                    << pin.weighting);
    auto scenario = fast_scenario(pin.scheme, 3.0);
    scenario.sink_weighting = pin.weighting;
    const auto result = run_paper_scenario(scenario);
    EXPECT_EQ(result.preemptions, pin.preemptions);
    EXPECT_EQ(result.events_executed, pin.events);
    ASSERT_EQ(result.flows.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(result.flows[i].mse_baseline, pin.flows[i].mse_baseline);
      EXPECT_EQ(result.flows[i].mse_adaptive, pin.flows[i].mse_adaptive);
      EXPECT_EQ(result.flows[i].mean_latency, pin.flows[i].mean_latency);
    }
  }
}

TEST(PaperScenario, SinkWeightingRejectsDropTail) {
  auto scenario = fast_scenario(Scheme::kDropTail, 5.0);
  scenario.sink_weighting = 0.5;
  EXPECT_THROW(run_paper_scenario(scenario), std::invalid_argument);
}

TEST(PaperScenario, ValidatesConfig) {
  auto bad_rate = fast_scenario(Scheme::kRcad, 0.0);
  EXPECT_THROW(run_paper_scenario(bad_rate), std::invalid_argument);
  auto no_flows = fast_scenario(Scheme::kRcad, 2.0);
  no_flows.hop_counts.clear();
  EXPECT_THROW(run_paper_scenario(no_flows), std::invalid_argument);
}

TEST(PaperScenario, PoissonSourcesMatchAnalyticLatency) {
  auto scenario = fast_scenario(Scheme::kUnlimitedDelay, 5.0);
  scenario.source = SourceKind::kPoisson;
  scenario.packets_per_source = 400;
  const auto result = run_paper_scenario(scenario);
  EXPECT_EQ(result.delivered, result.originated);
  EXPECT_NEAR(result.flows[0].mean_latency, 465.0, 465.0 * 0.10);
}

TEST(PaperScenario, BurstySourcesPreemptMoreAtEqualAverageRate) {
  auto periodic = fast_scenario(Scheme::kRcad, 5.0);
  periodic.packets_per_source = 400;
  auto bursty = periodic;
  bursty.source = SourceKind::kBursty;
  const auto result_p = run_paper_scenario(periodic);
  const auto result_b = run_paper_scenario(bursty);
  EXPECT_EQ(result_b.delivered, result_b.originated);
  EXPECT_GT(result_b.preemptions, result_p.preemptions);
}

TEST(PaperScenario, HopJitterGivesCaseOneASmallNonzeroMse) {
  auto scenario = fast_scenario(Scheme::kNoDelay, 5.0);
  scenario.hop_jitter = 0.5;  // adversary knows tau + jitter/2
  const auto result = run_paper_scenario(scenario);
  // h * jitter^2 / 12 = 15 * 0.25/12 ≈ 0.31 for S1.
  EXPECT_GT(result.flows[0].mse_baseline, 0.1);
  EXPECT_LT(result.flows[0].mse_baseline, 1.0);
}

TEST(SourceKindNames, AreHumanReadable) {
  EXPECT_STREQ(to_string(SourceKind::kPeriodic), "periodic");
  EXPECT_STREQ(to_string(SourceKind::kPoisson), "poisson");
  EXPECT_STREQ(to_string(SourceKind::kBursty), "bursty");
}

TEST(SchemeNames, AreHumanReadable) {
  EXPECT_STREQ(to_string(Scheme::kNoDelay), "no-delay");
  EXPECT_STREQ(to_string(Scheme::kUnlimitedDelay), "delay+unlimited-buffers");
  EXPECT_STREQ(to_string(Scheme::kDropTail), "delay+drop-tail");
  EXPECT_STREQ(to_string(Scheme::kRcad), "delay+limited-buffers(RCAD)");
}

TEST(PaperScenario, RcadUnderEveryVictimPolicyPassesEndOfRunChecks) {
  // run_paper_scenario throws if any end-of-run identity fails (packet,
  // event or slab conservation); drive them through heavy preemption under
  // every victim rule.
  for (const core::VictimPolicy victim :
       {core::VictimPolicy::kShortestRemaining,
        core::VictimPolicy::kLongestRemaining, core::VictimPolicy::kRandom,
        core::VictimPolicy::kOldest}) {
    PaperScenario scenario = fast_scenario(Scheme::kRcad, 2.0);
    scenario.victim = victim;
    scenario.source = SourceKind::kBursty;
    scenario.hop_jitter = 0.5;
    const ScenarioResult result = run_paper_scenario(scenario);
    EXPECT_GT(result.preemptions, 100u) << core::to_string(victim);
    EXPECT_EQ(result.delivered, result.originated);
  }
}

TEST(EndOfRunChecks, EachIdentityThrowsWhenBroken) {
  // Counts of a consistent drained run: 10 originated, 7 delivered, 1
  // dropped, 2 buffered; 40 events scheduled and run; 30 admitted, 25
  // released, 3 preempted, 2 held; 2 live pool slots.
  const EndOfRunCounts good{10, 7, 1, 2, 0, 30, 10, 40, 30, 25, 3, 2, 2};
  EXPECT_NO_THROW(check_end_of_run(good, 1));
  const auto message_of = [](const EndOfRunCounts& counts) {
    try {
      check_end_of_run(counts, 77);
    } catch (const std::logic_error& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };

  EndOfRunCounts lost_packet = good;
  ++lost_packet.originated;
  EXPECT_NE(message_of(lost_packet).find("packet conservation"),
            std::string::npos);

  EndOfRunCounts unrun_event = good;
  ++unrun_event.scheduled_heap;  // a pending (or lost) event
  const std::string events = message_of(unrun_event);
  EXPECT_NE(events.find("scheduled events != executed"), std::string::npos)
      << events;
  EXPECT_NE(events.find("seed 77"), std::string::npos) << events;
  EXPECT_NE(events.find("scheduled 41"), std::string::npos) << events;

  EndOfRunCounts released_twice = good;
  ++released_twice.released;
  const std::string slab = message_of(released_twice);
  EXPECT_NE(slab.find("admitted != released + preempted + held"),
            std::string::npos)
      << slab;
  EXPECT_NE(slab.find("released + preempted + held 31"), std::string::npos)
      << slab;

  EndOfRunCounts leaked_slot = good;
  ++leaked_slot.live;  // a dropped packet never freed
  const std::string pool = message_of(leaked_slot);
  EXPECT_NE(pool.find("pool live != buffered + in flight"), std::string::npos)
      << pool;
  EXPECT_NE(pool.find("live 3"), std::string::npos) << pool;
}

}  // namespace
}  // namespace tempriv::workload
