// Scale benchmark for the million-node network: builds a uniform-
// density random-geometric sensor field with multiple sinks, constructs the
// CSR adjacency, nearest-sink routing and a spec-configured RCAD network,
// then (in --mode full) drives Poisson traffic from a sample of sources
// through the full pipeline — seal, forward, delay, preempt, deliver — with
// a baseline adversary and ground-truth recorder scoring temporal privacy
// at the sink.
//
// Emits one JSON object on stdout per invocation. Wall-clock numbers are
// machine-dependent; the structural fields (nodes, edges, bytes_per_node,
// unreachable, graph_digest, delivered, adversary_mse) are deterministic per
// seed, and so are the event kernel's counts of a full run (peak_events,
// scheduled_heap, scheduled_fifo, rekeys). graph_digest is FNV-1a over the
// CSR index (row_offsets, adjacency) and the routing tree (next hop, sink
// and hop count of every node), so any change to the built field changes
// it. The `scale_rcad` ctest (tests/cli/scale_rcad_test.sh) gates every
// packet delivered and scheduled_heap + scheduled_fifo == events on a
// 10⁴-node full run, bytes_per_node ≤ 256 on a 10⁵-node build, and that
// build's edges, unreachable and graph_digest. perfbench's field_1m workload times
// the 10⁶-node scored run.
//
// Usage: scale_rcad --n 100000 [--mode full|build] [--sinks 32]
//                   [--sources 512] [--packets 20] [--interval 20]
//                   [--radius 1.8] [--mean-delay 30] [--capacity 10]
//                   [--seed 1]
//
// A malformed or out-of-range value exits 2 with a message, never aborts.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
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
#include "tools/cli_number.h"
#include "workload/source.h"

namespace {

using namespace tempriv;
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

/// Folds the little-endian bytes of `value` into the FNV-1a (64-bit) hash `h`.
template <typename T>
void fnv1a(std::uint64_t& h, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    h ^= static_cast<std::uint8_t>(static_cast<std::uint64_t>(value) >> (8 * i));
    h *= 0x100000001b3ULL;
  }
}

/// FNV-1a over the CSR index and the routing tree: one number that moves
/// when any row, any offset or any node's route changes.
std::uint64_t graph_digest(const net::Topology& topology,
                           const net::RoutingTable& routing) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint32_t offset : topology.row_offsets()) fnv1a(h, offset);
  for (const net::NodeId nbr : topology.adjacency()) fnv1a(h, nbr);
  for (net::NodeId id = 0; id < topology.node_count(); ++id) {
    fnv1a(h, routing.next_hop(id));
    fnv1a(h, routing.sink_of(id));
    fnv1a(h, routing.reachable(id) ? routing.hops_to_sink(id) : std::uint16_t{0});
  }
  return h;
}

[[noreturn]] void usage_error(const char* what) {
  std::fprintf(stderr, "scale_rcad: %s\n", what);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (++i >= argc) usage_error("missing value after flag");
      return argv[i];
    };
    if (flag == "--n") {
      opt.n = cli::parse_uint<std::size_t>(flag, value());
    } else if (flag == "--mode") {
      const std::string mode = value();
      if (mode == "build") {
        opt.build_only = true;
      } else if (mode != "full") {
        usage_error("--mode must be full or build");
      }
    } else if (flag == "--sinks") {
      opt.sinks = cli::parse_uint<std::size_t>(flag, value());
    } else if (flag == "--sources") {
      opt.sources = cli::parse_uint<std::size_t>(flag, value());
    } else if (flag == "--packets") {
      opt.packets = cli::parse_uint<std::uint32_t>(flag, value());
    } else if (flag == "--interval") {
      opt.interval = cli::parse_double(flag, value());
    } else if (flag == "--radius") {
      opt.radius = cli::parse_double(flag, value());
    } else if (flag == "--mean-delay") {
      opt.mean_delay = cli::parse_double(flag, value());
    } else if (flag == "--capacity") {
      opt.capacity = cli::parse_uint<std::size_t>(flag, value());
    } else if (flag == "--seed") {
      opt.seed = cli::parse_uint<std::uint64_t>(flag, value());
    } else {
      usage_error("unknown flag (see header comment for usage)");
    }
  }
  if (opt.n < 2) usage_error("--n must be >= 2");
  if (opt.sinks == 0 || opt.sinks >= opt.n) usage_error("--sinks out of range");
  if (opt.interval <= 0 || opt.radius <= 0) usage_error("bad --interval/--radius");
  return opt;
}

int run(const Options& opt) {
  // Unit density: n nodes in a side × side square with side = sqrt(n), so
  // the expected degree (π·r² − 1 neighbors) is scale-invariant and the
  // giant component covers the field at every rung of the ladder.
  const double side = std::sqrt(static_cast<double>(opt.n));

  sim::RandomStream topo_rng(opt.seed);
  const auto t_topo = Clock::now();
  const net::Topology topology = net::Topology::random_geometric_multi_sink(
      opt.n, side, opt.radius, opt.sinks, topo_rng);
  const double topo_s = seconds_since(t_topo);

  const std::size_t edges = topology.edge_count();
  const net::RoutingTable routing(topology);
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
  std::printf("  \"graph_digest\": \"%016llx\",\n",
              static_cast<unsigned long long>(graph_digest(topology, routing)));
  // The CSR adjacency and the routing table are built with the topology.
  std::printf("  \"build_topology_s\": %.6f,\n", topo_s);
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
    // The event kernel's own counts: a run to empty has scheduled_heap +
    // scheduled_fifo == events (every scheduled event runs once).
    const sim::EventQueue& queue = simulator.queue();
    std::printf("  \"peak_events\": %zu,\n", queue.peak_size());
    std::printf("  \"scheduled_heap\": %llu,\n",
                static_cast<unsigned long long>(queue.scheduled_heap()));
    std::printf("  \"scheduled_fifo\": %llu,\n",
                static_cast<unsigned long long>(queue.scheduled_fifo()));
    std::printf("  \"rekeys\": %llu,\n",
                static_cast<unsigned long long>(queue.rekeys()));
    std::printf("  \"run_s\": %.6f,\n", run_s);
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

}  // namespace

int main(int argc, char** argv) {
  // Out-of-range values the parser cannot judge alone (--capacity 0,
  // --mean-delay 0) are rejected by the constructors before anything is
  // printed; they are usage errors too.
  try {
    return run(parse(argc, argv));
  } catch (const std::invalid_argument& e) {
    usage_error(e.what());
  }
}
