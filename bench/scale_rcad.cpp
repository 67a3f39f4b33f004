// Scale benchmark for the million-node network: builds a uniform-
// density random-geometric sensor field with multiple sinks, constructs the
// CSR adjacency, nearest-sink routing and a spec-configured RCAD network,
// then (in --mode full) drives Poisson traffic from a sample of sources
// through the full pipeline — seal, forward, delay, preempt, deliver — with
// a baseline adversary and ground-truth recorder scoring temporal privacy
// at the sink.
//
// Emits one JSON object on stdout per invocation; scripts/bench_scale.sh
// runs the n-ladder and merges the objects into BENCH_scale.json. Wall-clock
// numbers are machine-dependent (trajectory data, not a regression gate);
// the structural fields (nodes, edges, bytes_per_node, unreachable,
// delivered, adversary_mse) are deterministic per seed.
//
// Usage: scale_rcad --n 100000 [--mode full|build] [--sinks 32]
//                   [--sources 512] [--packets 20] [--interval 20]
//                   [--radius 1.8] [--mean-delay 30] [--capacity 10]
//                   [--seed 1]

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "adversary/estimator.h"
#include "adversary/ground_truth.h"
#include "core/discipline_spec.h"
#include "crypto/payload.h"
#include "metrics/stats.h"
#include "net/network.h"
#include "net/routing.h"
#include "net/topology.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "workload/source.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::size_t n = 0;
  bool build_only = false;
  std::size_t sinks = 4;
  std::size_t sources = 512;
  std::uint32_t packets = 20;
  double interval = 20.0;   // mean packet inter-creation time 1/λ
  double radius = 1.8;      // comm radius at unit density (mean degree ~10)
  double mean_delay = 30.0; // RCAD 1/µ (paper §5.2)
  std::size_t capacity = 10;
  std::uint64_t seed = 1;
};

[[noreturn]] void usage_error(const char* what) {
  std::fprintf(stderr, "scale_rcad: %s\n", what);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (++i >= argc) usage_error("missing value after flag");
      return argv[i];
    };
    if (flag == "--n") {
      opt.n = std::strtoull(value(), nullptr, 10);
    } else if (flag == "--mode") {
      const std::string mode = value();
      if (mode == "build") {
        opt.build_only = true;
      } else if (mode != "full") {
        usage_error("--mode must be full or build");
      }
    } else if (flag == "--sinks") {
      opt.sinks = std::strtoull(value(), nullptr, 10);
    } else if (flag == "--sources") {
      opt.sources = std::strtoull(value(), nullptr, 10);
    } else if (flag == "--packets") {
      opt.packets = static_cast<std::uint32_t>(std::strtoul(value(), nullptr, 10));
    } else if (flag == "--interval") {
      opt.interval = std::strtod(value(), nullptr);
    } else if (flag == "--radius") {
      opt.radius = std::strtod(value(), nullptr);
    } else if (flag == "--mean-delay") {
      opt.mean_delay = std::strtod(value(), nullptr);
    } else if (flag == "--capacity") {
      opt.capacity = std::strtoull(value(), nullptr, 10);
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value(), nullptr, 10);
    } else {
      usage_error("unknown flag (see header comment for usage)");
    }
  }
  if (opt.n < 2) usage_error("--n must be >= 2");
  if (opt.sinks == 0 || opt.sinks >= opt.n) usage_error("--sinks out of range");
  if (opt.interval <= 0 || opt.radius <= 0) usage_error("bad --interval/--radius");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tempriv;
  const Options opt = parse(argc, argv);
  // Unit density: n nodes in a side × side square with side = sqrt(n), so
  // the expected degree (π·r² − 1 neighbors) is scale-invariant and the
  // giant component covers the field at every rung of the ladder.
  const double side = std::sqrt(static_cast<double>(opt.n));

  sim::RandomStream topo_rng(opt.seed);
  const auto t_topo = Clock::now();
  const net::Topology topology = net::Topology::random_geometric_multi_sink(
      opt.n, side, opt.radius, opt.sinks, topo_rng);
  const double topo_s = seconds_since(t_topo);

  const auto t_csr = Clock::now();
  const std::size_t edges = topology.edge_count();
  const double csr_s = seconds_since(t_csr);

  const auto t_routing = Clock::now();
  const net::RoutingTable routing(topology);
  const double routing_s = seconds_since(t_routing);
  const std::size_t unreachable = routing.unreachable_count();

  sim::Simulator simulator;
  const auto t_net = Clock::now();
  net::Network network(simulator, topology,
                       core::DisciplineSpec::rcad_exponential(opt.mean_delay,
                                                              opt.capacity),
                       {}, sim::RandomStream(opt.seed + 1));
  const double net_s = seconds_since(t_net);

  std::printf("{\n");
  std::printf("  \"nodes\": %zu,\n", opt.n);
  std::printf("  \"mode\": \"%s\",\n", opt.build_only ? "build" : "full");
  std::printf("  \"sinks\": %zu,\n", opt.sinks);
  std::printf("  \"edges\": %zu,\n", edges);
  std::printf("  \"mean_degree\": %.3f,\n",
              2.0 * static_cast<double>(edges) / static_cast<double>(opt.n));
  std::printf("  \"unreachable\": %zu,\n", unreachable);
  std::printf("  \"build_topology_s\": %.6f,\n", topo_s);
  // csr/routing now time handle reads; their build is in build_topology_s.
  std::printf("  \"build_csr_s\": %.6f,\n", csr_s);
  std::printf("  \"build_routing_s\": %.6f,\n", routing_s);
  std::printf("  \"build_network_s\": %.6f", net_s);

  if (!opt.build_only) {
    const crypto::PayloadCodec codec(crypto::Speck64_128::Key{
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
    adversary::GroundTruthRecorder recorder(codec);
    adversary::BaselineAdversary adversary(network.hop_tx_delay(),
                                           opt.mean_delay);
    network.add_sink_observer(&recorder);
    network.add_sink_observer(&adversary);

    // Sample sources evenly across the id space, skipping sinks and any
    // node outside the giant component. Deterministic per (n, seed).
    std::vector<net::NodeId> origins;
    origins.reserve(opt.sources);
    const std::size_t stride =
        std::max<std::size_t>(1, opt.n / std::max<std::size_t>(1, opt.sources));
    for (std::size_t id = 0; id < opt.n && origins.size() < opt.sources;
         id += stride) {
      const auto node = static_cast<net::NodeId>(id);
      if (topology.is_sink(node) || !routing.reachable(node)) continue;
      origins.push_back(node);
    }

    sim::RandomStream source_root(opt.seed + 2);
    std::vector<std::unique_ptr<workload::PoissonSource>> sources;
    sources.reserve(origins.size());
    for (const net::NodeId origin : origins) {
      sources.push_back(std::make_unique<workload::PoissonSource>(
          network, codec, origin, source_root.split(origin),
          1.0 / opt.interval, opt.packets));
      // Stagger starts across one mean interval so the field does not
      // originate in one synchronized burst at t = 0.
      sources.back()->start(source_root.uniform(0.0, opt.interval));
    }
    network.reserve(origins.size() + 64);
    simulator.reserve(4096);

    const auto t_run = Clock::now();
    simulator.run();
    const double run_s = seconds_since(t_run);
    const std::uint64_t events = simulator.events_executed();
    const metrics::MseAccumulator score = recorder.score_all(adversary);

    std::printf(",\n");
    std::printf("  \"sources\": %zu,\n", origins.size());
    std::printf("  \"originated\": %llu,\n",
                static_cast<unsigned long long>(network.packets_originated()));
    std::printf("  \"delivered\": %llu,\n",
                static_cast<unsigned long long>(network.packets_delivered()));
    std::printf("  \"preemptions\": %llu,\n",
                static_cast<unsigned long long>(network.total_preemptions()));
    std::printf("  \"drops\": %llu,\n",
                static_cast<unsigned long long>(network.total_drops()));
    std::printf("  \"events\": %llu,\n",
                static_cast<unsigned long long>(events));
    std::printf("  \"run_s\": %.6f,\n", run_s);
    std::printf("  \"events_per_s\": %.0f,\n",
                run_s > 0 ? static_cast<double>(events) / run_s : 0.0);
    std::printf("  \"mean_latency\": %.4f,\n", recorder.total_latency().mean());
    std::printf("  \"adversary_mse\": %.4f,\n", score.mse());
    std::printf("  \"adversary_estimates\": %llu",
                static_cast<unsigned long long>(score.count()));
  }

  // Measured last, so a full run counts the buffer slab at the size the
  // traffic grew it to, not the empty slab of a fresh build.
  const std::size_t graph_bytes =
      topology.memory_bytes() + routing.memory_bytes();
  const std::size_t network_bytes = network.memory_bytes();
  std::printf(",\n  \"graph_bytes\": %zu,\n", graph_bytes);
  std::printf("  \"network_bytes\": %zu,\n", network_bytes);
  std::printf("  \"bytes_per_node\": %.1f",
              static_cast<double>(graph_bytes + network_bytes) /
                  static_cast<double>(opt.n));
  std::printf("\n}\n");
  return 0;
}
