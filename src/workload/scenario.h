#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/delay_buffer.h"
#include "net/packet.h"

namespace tempriv::workload {

/// Which privacy scheme every node on the forwarding paths runs — the three
/// situations of the paper's §5.3 plus the plain-dropping M/M/k/k variant.
enum class Scheme {
  kNoDelay,         ///< case 1: forward immediately
  kUnlimitedDelay,  ///< case 2: Exp(1/µ) delays, unlimited buffers
  kDropTail,        ///< §4: Exp(1/µ) delays, k slots, drop on overflow
  kRcad,            ///< case 3: Exp(1/µ) delays, k slots, RCAD preemption
};

const char* to_string(Scheme scheme) noexcept;

/// Inverse of to_string(Scheme); also accepts the CLI short names
/// ("nodelay" or "no-delay", "unlimited", "droptail" or "drop-tail",
/// "rcad"). Throws std::invalid_argument on unknown names.
Scheme scheme_from_string(const std::string& name);

/// Which creation process drives the sources: the paper's periodic
/// generators, the Poisson process its analysis assumes, or ON/OFF bursts
/// at the same average rate (see workload/burst_source.h).
enum class SourceKind {
  kPeriodic,
  kPoisson,
  kBursty,
};

const char* to_string(SourceKind kind) noexcept;

/// Inverse of to_string(SourceKind). Throws std::invalid_argument on
/// unknown names.
SourceKind source_kind_from_string(const std::string& name);

/// The paper's simulation setup (§5.2), parameterized for sweeps: the
/// Figure-1 topology (four sources with hop counts 15/22/9/11 converging on
/// a sink), periodic sources with inter-arrival 1/λ, per-hop transmission
/// delay τ = 1, Exp(1/µ = 30) privacy delays and 10-slot (Mica-2-sized)
/// buffers.
struct PaperScenario {
  double interarrival = 2.0;            ///< 1/λ, swept 2..20 in the paper
  std::uint32_t packets_per_source = 1000;
  double mean_delay = 30.0;             ///< 1/µ
  std::size_t buffer_slots = 10;        ///< k
  double hop_tx_delay = 1.0;            ///< τ
  Scheme scheme = Scheme::kRcad;
  core::VictimPolicy victim = core::VictimPolicy::kShortestRemaining;
  double adaptive_threshold = 0.1;      ///< adversary's Erlang-loss threshold
  std::uint64_t seed = 0x7e3970c1;
  std::vector<std::uint16_t> hop_counts = {15, 22, 9, 11};
  std::uint16_t shared_tail = 3;
  /// §3.3 ablation: 0 = same mean delay at every node (the paper's setup),
  /// 1 = mean delay linearly biased away from the sink, preserving the
  /// expected end-to-end delay per flow.
  double sink_weighting = 0.0;
  /// Creation process; all kinds share the average rate 1/interarrival.
  SourceKind source = SourceKind::kPeriodic;
  /// Optional per-link MAC jitter (see net::NetworkConfig::hop_jitter);
  /// the adversaries' known per-hop transmission delay becomes τ + jitter/2.
  double hop_jitter = 0.0;
  /// Opt-in packet tracing (net::PacketTracer). Off by default so untraced
  /// runs never construct the tracer or pay its per-transmission probe;
  /// when on, ScenarioResult::transmissions/packets_traced are filled in.
  bool trace = false;
};

/// Everything the evaluation section reports, per flow and network-wide.
struct FlowResult {
  net::NodeId source = net::kInvalidNode;
  std::uint16_t hops = 0;
  std::uint64_t delivered = 0;
  double mse_baseline = 0.0;    ///< Fig. 2(a) / Fig. 3 baseline-adversary MSE
  double mse_adaptive = 0.0;    ///< Fig. 3 adaptive-adversary MSE
  double mse_path_aware = 0.0;  ///< extension: per-node path-aware adversary
  double mean_latency = 0.0;   ///< Fig. 2(b)
  double max_latency = 0.0;
};

/// Measurement-only counts and timings of one run, copied at the end from
/// the objects that keep them: the event queue, the network and its buffer
/// slab. Nothing here feeds back into the simulation and no result writer
/// reads it, so it never moves a result byte; campaign::TelemetrySink folds
/// these records into the telemetry snapshot. The counts are deterministic,
/// the timings are not.
struct RunTelemetry {
  // sim::EventQueue
  std::uint64_t schedule_heap = 0;
  std::uint64_t schedule_fifo = 0;
  std::uint64_t fifo_diverted = 0;
  std::uint64_t rekeys = 0;
  std::uint64_t peak_events = 0;  ///< most events pending at once
  // net::Network::packets_handled()
  std::uint64_t forward_immediate = 0;
  std::uint64_t forward_buffered = 0;
  // The network's core::DelayBuffer slab
  core::DelayBuffer::OccupancyCounts occupancy{};
  std::uint64_t peak_occupancy = 0;
  // Heap bytes at the end of the run
  std::uint64_t network_bytes = 0;
  std::uint64_t topology_bytes = 0;
  std::uint64_t routing_bytes = 0;
  // Wall time of each phase, nanoseconds
  std::uint64_t build_ns = 0;
  std::uint64_t simulate_ns = 0;
  std::uint64_t score_ns = 0;
};

struct ScenarioResult {
  std::vector<FlowResult> flows;  ///< in hop_counts order (S1 first)
  std::uint64_t originated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t drops = 0;
  double mean_latency_all = 0.0;
  double sim_end_time = 0.0;
  std::uint64_t events_executed = 0;  ///< simulator events (throughput metric)
  /// Filled only when PaperScenario::trace is set; 0 otherwise.
  std::uint64_t transmissions = 0;   ///< link-layer transmissions traced
  std::uint64_t packets_traced = 0;  ///< distinct packets seen by the tracer
  RunTelemetry telemetry;
};

/// Builds the network, runs it to completion (all sources exhausted, all
/// buffers drained), and scores both adversary models against ground truth.
ScenarioResult run_paper_scenario(const PaperScenario& scenario);

/// What run_paper_scenario's end-of-run invariants compare, read from the
/// drained event queue, the network, its buffer slab and its packet pool.
struct EndOfRunCounts {
  // Packets: originated == delivered + dropped + buffered + in_flight.
  std::uint64_t originated, delivered, dropped, buffered, in_flight;
  // Events: scheduled_heap + scheduled_fifo == executed.
  std::uint64_t scheduled_heap, scheduled_fifo, executed;
  // The slab: admitted == released + preempted + held.
  std::uint64_t admitted, released, preempted, held;
  // The packet pool: live == buffered + in_flight.
  std::uint64_t live;
};

/// Throws std::logic_error naming `seed` and both sides of the first
/// identity of `counts` that fails. A miss is a simulator bug; throwing
/// makes the campaign count the job as failed instead of scoring a broken
/// run.
void check_end_of_run(const EndOfRunCounts& counts, std::uint64_t seed);

}  // namespace tempriv::workload
