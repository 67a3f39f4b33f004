#include "workload/scenario.h"

#include <chrono>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>

#include "adversary/estimator.h"
#include "adversary/ground_truth.h"
#include "adversary/path_aware.h"
#include "core/discipline_spec.h"
#include "crypto/payload.h"
#include "net/network.h"
#include "net/topology.h"
#include "net/tracer.h"
#include "sim/simulator.h"
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
  if (name == "droptail" || name == "drop-tail" || name == "delay+drop-tail") {
    return Scheme::kDropTail;
  }
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

core::DisciplineSpec scheme_spec(const PaperScenario& s, double mean_delay) {
  switch (s.scheme) {
    case Scheme::kNoDelay:
      return core::DisciplineSpec::immediate();
    case Scheme::kUnlimitedDelay:
      return core::DisciplineSpec::unlimited_exponential(mean_delay);
    case Scheme::kDropTail:
      return core::DisciplineSpec::droptail_exponential(mean_delay,
                                                        s.buffer_slots);
    case Scheme::kRcad:
      return core::DisciplineSpec::rcad_exponential(mean_delay, s.buffer_slots,
                                                    s.victim);
  }
  throw std::logic_error("run_paper_scenario: unknown scheme");
}

/// Each forwarding node's policy. With sink weighting (§3.3 ablation) a
/// node's mean delay scales linearly with its distance from the sink; the
/// reference path length is the mean configured hop count, so the
/// end-to-end delay budget is approximately preserved.
net::NodeSpecs node_specs(const PaperScenario& s) {
  if (s.scheme == Scheme::kNoDelay || s.sink_weighting <= 0.0) {
    return [spec = scheme_spec(s, s.mean_delay)](net::NodeId, std::uint16_t) {
      return spec;
    };
  }
  if (s.scheme == Scheme::kDropTail) {
    throw std::invalid_argument(
        "run_paper_scenario: sink_weighting supports unlimited/RCAD only");
  }
  const double h_ref =
      std::accumulate(s.hop_counts.begin(), s.hop_counts.end(), 0.0) /
      static_cast<double>(s.hop_counts.size());
  return [s, h_ref](net::NodeId, std::uint16_t hops) {
    const double ramp = 2.0 * static_cast<double>(hops) / (h_ref + 1.0);
    return scheme_spec(
        s, s.mean_delay * ((1.0 - s.sink_weighting) + s.sink_weighting * ramp));
  };
}

/// Throws std::logic_error naming the seed and both sides of a failed
/// end-of-run invariant.
void check_invariant(const char* what, std::uint64_t seed, const char* lhs,
                     std::uint64_t lhs_value, const char* rhs,
                     std::uint64_t rhs_value) {
  if (lhs_value == rhs_value) return;
  std::string message = "run_paper_scenario: ";
  message += what;
  message += " (seed ";
  message += std::to_string(seed);
  message += ": ";
  message += lhs;
  message += " ";
  message += std::to_string(lhs_value);
  message += ", ";
  message += rhs;
  message += " ";
  message += std::to_string(rhs_value);
  message += ")";
  throw std::logic_error(message);
}

std::uint64_t nanos_between(std::chrono::steady_clock::time_point from,
                            std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

}  // namespace

void check_end_of_run(const EndOfRunCounts& c, std::uint64_t seed) {
  // Packet conservation: every injected packet was delivered, dropped, is
  // still buffered or is on a link.
  check_invariant("packet conservation violated", seed, "originated",
                  c.originated, "accounted",
                  c.delivered + c.dropped + c.buffered + c.in_flight);
  // Event conservation: every scheduled event runs (events are re-keyed,
  // never withdrawn), so a drained queue has run each one exactly once.
  check_invariant("scheduled events != executed", seed, "scheduled",
                  c.scheduled_heap + c.scheduled_fifo, "executed", c.executed);
  // Slab conservation: every admitted packet left through its release
  // event, left early as a victim, or is still held; a miss means a packet
  // lost or released twice.
  check_invariant("admitted != released + preempted + held", seed, "admitted",
                  c.admitted, "released + preempted + held",
                  c.released + c.preempted + c.held);
  // Pool conservation: a packet's one slot is freed when it is delivered or
  // dropped, so every live slot holds a buffered or in-flight packet; a miss
  // means a slot leaked or was freed early.
  check_invariant("pool live != buffered + in flight", seed, "live", c.live,
                  "buffered + in flight", c.buffered + c.in_flight);
}

ScenarioResult run_paper_scenario(const PaperScenario& scenario) {
  if (scenario.interarrival <= 0.0) {
    throw std::invalid_argument("run_paper_scenario: interarrival must be > 0");
  }
  if (scenario.hop_counts.empty()) {
    throw std::invalid_argument("run_paper_scenario: no flows configured");
  }

  const auto build_start = std::chrono::steady_clock::now();

  sim::Simulator simulator;
  sim::RandomStream root(scenario.seed);

  auto built = net::Topology::converging_paths(scenario.hop_counts,
                                               scenario.shared_tail);
  net::NetworkConfig net_config;
  net_config.hop_tx_delay = scenario.hop_tx_delay;
  net_config.hop_jitter = scenario.hop_jitter;
  net::Network network(simulator, std::move(built.topology),
                       node_specs(scenario), net_config, root.split(0x6e65));
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

  const auto simulate_start = std::chrono::steady_clock::now();
  simulator.run();
  const auto simulate_end = std::chrono::steady_clock::now();

  const sim::EventQueue& queue = simulator.queue();
  const core::DelayBuffer& slab = network.buffer_slab();
  check_end_of_run(
      EndOfRunCounts{network.packets_originated(), network.packets_delivered(),
                     network.total_drops(), network.total_buffered(),
                     network.packets_in_flight(), queue.scheduled_heap(),
                     queue.scheduled_fifo(), simulator.events_executed(),
                     slab.admitted(), slab.released(), slab.preempted(),
                     slab.size(), network.packets_live()},
      scenario.seed);

  ScenarioResult result;
  RunTelemetry& telemetry = result.telemetry;
  telemetry.schedule_heap = queue.scheduled_heap();
  telemetry.schedule_fifo = queue.scheduled_fifo();
  telemetry.fifo_diverted = queue.fifo_diverted();
  telemetry.rekeys = queue.rekeys();
  telemetry.peak_events = queue.peak_size();
  telemetry.forward_immediate = network.packets_handled().immediate;
  telemetry.forward_buffered = network.packets_handled().buffered;
  telemetry.occupancy = slab.occupancy();
  telemetry.peak_occupancy = slab.peak_occupancy();
  telemetry.network_bytes = network.memory_bytes();
  telemetry.topology_bytes = network.topology().memory_bytes();
  telemetry.routing_bytes = network.routing().memory_bytes();

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
  telemetry.build_ns = nanos_between(build_start, simulate_start);
  telemetry.simulate_ns = nanos_between(simulate_start, simulate_end);
  telemetry.score_ns =
      nanos_between(simulate_end, std::chrono::steady_clock::now());
  return result;
}

}  // namespace tempriv::workload
