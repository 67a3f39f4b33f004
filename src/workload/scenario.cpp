#include "workload/scenario.h"

#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>

#include "adversary/estimator.h"
#include "adversary/ground_truth.h"
#include "adversary/path_aware.h"
#include "core/factories.h"
#include "crypto/payload.h"
#include "net/network.h"
#include "net/topology.h"
#include "net/tracer.h"
#include "sim/simulator.h"
#include "telemetry/probes.h"
#include "workload/burst_source.h"
#include "workload/source.h"

namespace tempriv::workload {

const char* to_string(SourceKind kind) noexcept {
  switch (kind) {
    case SourceKind::kPeriodic:
      return "periodic";
    case SourceKind::kPoisson:
      return "poisson";
    case SourceKind::kBursty:
      return "bursty";
  }
  return "unknown";
}

const char* to_string(Scheme scheme) noexcept {
  switch (scheme) {
    case Scheme::kNoDelay:
      return "no-delay";
    case Scheme::kUnlimitedDelay:
      return "delay+unlimited-buffers";
    case Scheme::kDropTail:
      return "delay+drop-tail";
    case Scheme::kRcad:
      return "delay+limited-buffers(RCAD)";
  }
  return "unknown";
}

Scheme scheme_from_string(const std::string& name) {
  if (name == "nodelay" || name == "no-delay") return Scheme::kNoDelay;
  if (name == "unlimited" || name == "delay+unlimited-buffers") {
    return Scheme::kUnlimitedDelay;
  }
  if (name == "droptail" || name == "delay+drop-tail") return Scheme::kDropTail;
  if (name == "rcad" || name == "delay+limited-buffers(RCAD)") {
    return Scheme::kRcad;
  }
  throw std::invalid_argument("unknown scheme: " + name);
}

SourceKind source_kind_from_string(const std::string& name) {
  if (name == "periodic") return SourceKind::kPeriodic;
  if (name == "poisson") return SourceKind::kPoisson;
  if (name == "bursty") return SourceKind::kBursty;
  throw std::invalid_argument("unknown source kind: " + name);
}

namespace {

net::DisciplineFactory make_factory(const PaperScenario& s) {
  if (s.scheme == Scheme::kNoDelay) return core::immediate_factory();

  if (s.sink_weighting > 0.0) {
    // §3.3 ablation: scale a node's mean delay linearly with its distance
    // from the sink. The reference path length is the mean configured hop
    // count, so the end-to-end delay budget is approximately preserved.
    const double h_ref =
        std::accumulate(s.hop_counts.begin(), s.hop_counts.end(), 0.0) /
        static_cast<double>(s.hop_counts.size());
    const double weighting = s.sink_weighting;
    const double base = s.mean_delay;
    core::DelayProfile profile = [weighting, base, h_ref](std::uint16_t hops) {
      const double ramp = 2.0 * static_cast<double>(hops) / (h_ref + 1.0);
      return base * ((1.0 - weighting) + weighting * ramp);
    };
    switch (s.scheme) {
      case Scheme::kUnlimitedDelay:
        return core::unlimited_exponential_profile_factory(std::move(profile));
      case Scheme::kRcad:
        return core::rcad_exponential_profile_factory(std::move(profile),
                                                      s.buffer_slots, s.victim);
      default:
        throw std::invalid_argument(
            "run_paper_scenario: sink_weighting supports unlimited/RCAD only");
    }
  }

  switch (s.scheme) {
    case Scheme::kUnlimitedDelay:
      return core::unlimited_exponential_factory(s.mean_delay);
    case Scheme::kDropTail:
      return core::droptail_exponential_factory(s.mean_delay, s.buffer_slots);
    case Scheme::kRcad:
      return core::rcad_exponential_factory(s.mean_delay, s.buffer_slots,
                                            s.victim);
    case Scheme::kNoDelay:
      break;  // handled above
  }
  throw std::logic_error("run_paper_scenario: unknown scheme");
}

}  // namespace

ScenarioResult run_paper_scenario(const PaperScenario& scenario) {
  if (scenario.interarrival <= 0.0) {
    throw std::invalid_argument("run_paper_scenario: interarrival must be > 0");
  }
  if (scenario.hop_counts.empty()) {
    throw std::invalid_argument("run_paper_scenario: no flows configured");
  }

  TEMPRIV_TLM_SPAN_BEGIN(build_span, "build");

  sim::Simulator simulator;
  sim::RandomStream root(scenario.seed);

  auto built = net::Topology::converging_paths(scenario.hop_counts,
                                               scenario.shared_tail);
  net::NetworkConfig net_config;
  net_config.hop_tx_delay = scenario.hop_tx_delay;
  net_config.hop_jitter = scenario.hop_jitter;
  net::Network network(simulator, std::move(built.topology), make_factory(scenario),
                       net_config, root.split(0x6e65));
  // Size the in-flight pool for the worst case of every routed node having
  // one packet on the wire at once, so steady state never grows it.
  network.reserve(network.topology().node_count());

  // Tracing is opt-in: untraced runs never construct the tracer, so the
  // transmit-probe list stays empty and the hot path is one branch.
  std::optional<net::PacketTracer> tracer;
  if (scenario.trace) {
    tracer.emplace(network);
    const std::size_t total_packets =
        scenario.hop_counts.size() * scenario.packets_per_source;
    std::size_t total_hops = 0;
    for (const std::uint16_t hops : scenario.hop_counts) {
      total_hops += static_cast<std::size_t>(hops) * scenario.packets_per_source;
    }
    tracer->reserve(total_packets, total_hops);
  }

  const crypto::Speck64_128::Key master_key{0x00, 0x11, 0x22, 0x33, 0x44, 0x55,
                                            0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb,
                                            0xcc, 0xdd, 0xee, 0xff};
  const crypto::PayloadCodec codec(master_key);

  const double known_mean_delay =
      scenario.scheme == Scheme::kNoDelay ? 0.0 : scenario.mean_delay;
  const double known_tx_delay =
      scenario.hop_tx_delay + scenario.hop_jitter / 2.0;
  adversary::BaselineAdversary baseline(known_tx_delay, known_mean_delay);
  adversary::AdaptiveAdversary adaptive({known_tx_delay, known_mean_delay,
                                         scenario.buffer_slots,
                                         scenario.adaptive_threshold});
  adversary::PathAwareAdversary path_aware(
      {known_tx_delay, known_mean_delay, scenario.buffer_slots,
       scenario.adaptive_threshold},
      network.topology(), network.routing());
  adversary::GroundTruthRecorder truth(codec);
  network.add_sink_observer(&baseline);
  network.add_sink_observer(&adaptive);
  network.add_sink_observer(&path_aware);
  network.add_sink_observer(&truth);

  std::vector<std::unique_ptr<Source>> sources;
  sim::RandomStream phase_rng = root.split(0x7068);
  for (std::size_t i = 0; i < built.sources.size(); ++i) {
    const double rate = 1.0 / scenario.interarrival;
    switch (scenario.source) {
      case SourceKind::kPeriodic:
        sources.push_back(std::make_unique<PeriodicSource>(
            network, codec, built.sources[i], root.split(0x1000 + i),
            scenario.interarrival, scenario.packets_per_source));
        break;
      case SourceKind::kPoisson:
        sources.push_back(std::make_unique<PoissonSource>(
            network, codec, built.sources[i], root.split(0x1000 + i), rate,
            scenario.packets_per_source));
        break;
      case SourceKind::kBursty: {
        // ON/OFF with duty cycle 1/4 and 4x in-burst rate: the long-run
        // average matches the other kinds.
        BurstSource::Config config;
        config.burst_rate = 4.0 * rate;
        config.mean_on_time = 10.0 * scenario.interarrival;
        config.mean_off_time = 30.0 * scenario.interarrival;
        config.count = scenario.packets_per_source;
        sources.push_back(std::make_unique<BurstSource>(
            network, codec, built.sources[i], root.split(0x1000 + i), config));
        break;
      }
    }
    // Independent phases avoid artificial synchronization among the
    // periodic flows (the paper does not specify phasing).
    sources.back()->start(phase_rng.uniform(0.0, scenario.interarrival));
  }

  TEMPRIV_TLM_SPAN_END(build_span);

  {
    TEMPRIV_TLM_SPAN("simulate");
    simulator.run();
  }

  // Packet conservation: every injected packet was delivered, dropped, is
  // still buffered or is on a link. A miss is a simulator bug; throwing makes
  // the campaign count the job as failed instead of scoring a leaky run.
  const std::uint64_t accounted =
      network.packets_delivered() + network.total_drops() +
      network.total_buffered() + network.packets_in_flight();
  if (network.packets_originated() != accounted) {
    std::string what = "run_paper_scenario: packet conservation violated (seed ";
    what += std::to_string(scenario.seed);
    what += ": originated ";
    what += std::to_string(network.packets_originated());
    what += ", accounted ";
    what += std::to_string(accounted);
    what += ")";
    throw std::logic_error(what);
  }

  TEMPRIV_TLM_GAUGE_MAX(kMemNetworkBytes, network.memory_bytes());
  TEMPRIV_TLM_GAUGE_MAX(kMemTopologyBytes, network.topology().memory_bytes());
  TEMPRIV_TLM_GAUGE_MAX(kMemRoutingBytes, network.routing().memory_bytes());

  TEMPRIV_TLM_SPAN_BEGIN(score_span, "score");

  ScenarioResult result;
  result.events_executed = simulator.events_executed();
  result.originated = network.packets_originated();
  result.delivered = network.packets_delivered();
  result.preemptions = network.total_preemptions();
  result.drops = network.total_drops();
  result.mean_latency_all = truth.total_latency().mean();
  result.sim_end_time = simulator.now();
  if (tracer) {
    result.transmissions = tracer->transmissions();
    result.packets_traced = tracer->packets_traced();
  }
  for (std::size_t i = 0; i < built.sources.size(); ++i) {
    FlowResult flow;
    flow.source = built.sources[i];
    flow.hops = scenario.hop_counts[i];
    const auto mse_b = truth.score_flow(baseline, built.sources[i]);
    const auto mse_a = truth.score_flow(adaptive, built.sources[i]);
    flow.delivered = mse_b.count();
    flow.mse_baseline = mse_b.mse();
    flow.mse_adaptive = mse_a.mse();
    flow.mse_path_aware = truth.score_flow(path_aware, built.sources[i]).mse();
    if (flow.delivered > 0) {
      const auto& lat = truth.latency(built.sources[i]);
      flow.mean_latency = lat.mean();
      flow.max_latency = lat.max();
    }
    result.flows.push_back(flow);
  }
  return result;
}

}  // namespace tempriv::workload
