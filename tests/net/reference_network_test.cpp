// Differential fuzz of net::Network against the naive reference network
// (tests/oracles/reference_network.h). Each seed draws a topology (line,
// converging paths, grid or a small multi-sink random geometric field),
// the nodes' schemes (one uniform spec or a per-node mix of immediate,
// unlimited, drop-tail and RCAD under every victim rule), the buffer size
// k in {1, 2, 5}, the link jitter (0 or positive), the delay law
// (exponential or constant — constant delays with a constant τ force exact
// time ties) and the injections (Poisson or periodic). The engine and the
// reference then run side by side and must agree bit for bit on the
// delivery trace (uid, origin, arrival time, hop count, previous hop,
// routing sequence number), on the per-hop transmission log (the same
// fields as each packet leaves each node, read through a transmit probe on
// the engine), on every node's preemption, drop and occupancy
// counts and on the number of live events executed: at run_until()
// checkpoints, after a stop() from a sink observer, and at the end of the
// run. A uniform scenario runs both Network constructors (first-touch and
// NodeSpecs) against the one reference. Those are every forwarding path
// the engine has.

#include "oracles/reference_network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/network.h"
#include "net/routing.h"

namespace tempriv::net {
namespace {

using core::DisciplineSpec;
using core::VictimPolicy;
using oracles::Delivery;
using oracles::Injection;
using oracles::ReferenceNetwork;
using oracles::Transmission;

struct Scenario {
  explicit Scenario(Topology field) : topology(std::move(field)) {}

  Topology topology;
  std::vector<DisciplineSpec> specs;  // one per node
  bool uniform = false;               // specs are one spec, shared
  oracles::LinkTiming timing;
  std::vector<Injection> injections;
  std::uint64_t root_seed = 0;
  double horizon = 0.0;
};

/// What the fuzz exercised, so a test can prove its coverage.
struct Coverage {
  std::array<bool, 4> kinds{};  // spec kinds that handled a packet
  std::array<bool, 4> preempted_by{};  // victim rules that preempted
  bool dropped = false;
  std::uint64_t ties = 0;
  bool jitter = false;
  bool constant_delay = false;
  bool both_constructors = false;
  bool stopped_mid_run = false;
};

std::shared_ptr<const core::DelayDistribution> draw_delay(
    sim::RandomStream& rng, bool constant) {
  if (constant) {
    return std::make_shared<core::ConstantDelay>(
        static_cast<double>(rng.uniform_index(4)));
  }
  return std::make_shared<core::ExponentialDelay>(rng.uniform(0.5, 12.0));
}

DisciplineSpec draw_spec(sim::RandomStream& rng, bool constant) {
  static constexpr std::size_t kSlots[] = {1, 2, 5};
  const std::size_t k = kSlots[rng.uniform_index(3)];
  const auto victim = static_cast<VictimPolicy>(rng.uniform_index(4));
  switch (rng.uniform_index(6)) {
    case 0:
      return DisciplineSpec::immediate();
    case 1:
      return DisciplineSpec::unlimited(draw_delay(rng, constant));
    case 2:
      return DisciplineSpec::droptail(draw_delay(rng, constant), k);
    default:
      return DisciplineSpec::rcad(draw_delay(rng, constant), k, victim);
  }
}

/// Periodic (integer period and phase, so origins can fire together) or
/// Poisson injection times for `origin`, up to `horizon`.
void draw_injections(sim::RandomStream& rng, NodeId origin, double horizon,
                     bool periodic, std::vector<Injection>& out) {
  if (periodic) {
    const double period = 1.0 + static_cast<double>(rng.uniform_index(4));
    for (double t = static_cast<double>(rng.uniform_index(3)); t < horizon;
         t += period) {
      out.push_back({t, origin});
    }
    return;
  }
  const double mean = rng.uniform(0.5, 4.0);
  for (double t = rng.exponential_mean(mean); t < horizon;
       t += rng.exponential_mean(mean)) {
    out.push_back({t, origin});
  }
}

Scenario draw_scenario(std::uint64_t seed) {
  sim::RandomStream rng(0x5eed000000000000ULL + seed);
  std::vector<NodeId> sources;
  Scenario s{[&] {
    switch (rng.uniform_index(4)) {
      case 0:
        return Topology::line(3 + rng.uniform_index(6));
      case 1: {
        std::vector<std::uint16_t> hops;
        const auto tail = static_cast<std::uint16_t>(1 + rng.uniform_index(2));
        for (std::size_t b = 0, n = 2 + rng.uniform_index(2); b < n; ++b) {
          hops.push_back(
              static_cast<std::uint16_t>(tail + 1 + rng.uniform_index(4)));
        }
        ConvergingPaths paths = Topology::converging_paths(hops, tail);
        sources = paths.sources;
        return paths.topology;
      }
      case 2:
        return Topology::grid(2 + rng.uniform_index(3),
                              2 + rng.uniform_index(3));
      default:
        return Topology::random_geometric_multi_sink(
            24, 10.0, 3.2, 2 + rng.uniform_index(2), rng);
    }
  }()};
  const RoutingTable routing(s.topology);
  std::vector<NodeId> forwarding;
  for (NodeId id = 0; id < s.topology.node_count(); ++id) {
    if (routing.next_hop(id) != kInvalidNode) forwarding.push_back(id);
  }
  if (sources.empty()) {
    for (std::size_t i = 0, n = 1 + rng.uniform_index(4); i < n; ++i) {
      sources.push_back(forwarding[rng.uniform_index(forwarding.size())]);
    }
  }

  const bool constant = rng.uniform01() < 0.4;
  s.uniform = rng.uniform01() < 0.5;
  s.specs.assign(s.topology.node_count(), DisciplineSpec::immediate());
  if (s.uniform) {
    std::fill(s.specs.begin(), s.specs.end(), draw_spec(rng, constant));
  } else {
    // A small palette, so neighbours often share a delay object (and the
    // engine one slab configuration), plus a fresh spec now and then.
    const std::vector<DisciplineSpec> palette = {draw_spec(rng, constant),
                                                 draw_spec(rng, constant)};
    for (NodeId id : forwarding) {
      s.specs[id] = (rng.uniform01() < 0.2) ? draw_spec(rng, constant)
                                       : palette[rng.uniform_index(2)];
    }
  }
  if (rng.uniform01() < 0.5) s.timing.hop_jitter = rng.uniform(0.05, 1.5);
  s.horizon = 10.0 + rng.uniform(0.0, 30.0);
  const bool periodic = rng.uniform01() < 0.5;
  for (NodeId origin : sources) {
    draw_injections(rng, origin, s.horizon, periodic, s.injections);
  }
  std::stable_sort(s.injections.begin(), s.injections.end(),
                   [](const Injection& a, const Injection& b) {
                     return a.time < b.time;
                   });
  s.root_seed = rng.bits();
  return s;
}

/// Records every delivery as the reference does and stops the simulator
/// after the `stop_after`-th.
class TraceObserver final : public SinkObserver {
 public:
  explicit TraceObserver(sim::Simulator& sim) : sim_(sim) {}
  void on_delivery(const Packet& packet, sim::Time arrival) override {
    trace_.push_back({packet.uid, packet.header.origin, arrival,
                      packet.header.hop_count, packet.header.prev_hop,
                      packet.header.routing_seq});
    if (trace_.size() == stop_after) sim_.stop();
  }
  const std::vector<Delivery>& trace() const { return trace_; }
  std::uint64_t stop_after = ReferenceNetwork::kNoStop;

 private:
  sim::Simulator& sim_;
  std::vector<Delivery> trace_;
};

/// The engine under test: a Network over the scenario, with the
/// injections scheduled before anything else (as the reference does).
struct Engine {
  Engine(const Scenario& s, bool per_node) : observer(sim) {
    const NetworkConfig config{s.timing.hop_tx_delay, s.timing.hop_jitter};
    const sim::RandomStream root(s.root_seed);
    if (per_node) {
      const NodeSpecs specs = [&s](NodeId id, std::uint16_t) {
        return s.specs[id];
      };
      net = std::make_unique<Network>(sim, s.topology, specs, config, root);
    } else {
      net = std::make_unique<Network>(sim, s.topology, s.specs.front(), config,
                                      root);
    }
    net->add_sink_observer(&observer);
    net->add_transmit_probe(
        [this](NodeId from, NodeId to, const Packet& packet, sim::Time now) {
          sent.push_back({packet.uid, from, to, now, packet.header.origin,
                          packet.header.hop_count, packet.header.prev_hop,
                          packet.header.routing_seq});
        });
    for (const Injection& injection : s.injections) {
      sim.schedule_at(injection.time, [this, origin = injection.origin] {
        net->originate(origin, {});
      });
    }
  }

  Engine(const Engine&) = delete;  // the probe captures `this`
  Engine& operator=(const Engine&) = delete;

  sim::Simulator sim;
  TraceObserver observer;
  std::vector<Transmission> sent;  // every transmission, as the probe saw it
  std::unique_ptr<Network> net;
};

std::string describe(const Delivery& d) {
  std::string text = "uid ";
  text += std::to_string(d.uid) + " origin " + std::to_string(d.origin) +
          " at " + std::to_string(d.arrival) + " hops " +
          std::to_string(d.hop_count) + " prev " + std::to_string(d.prev_hop) +
          " seq " + std::to_string(d.routing_seq);
  return text;
}

std::string describe(const Transmission& t) {
  std::string text = "uid ";
  text += std::to_string(t.uid) + " " + std::to_string(t.from) + "->" +
          std::to_string(t.to) + " at " + std::to_string(t.at) + " origin " +
          std::to_string(t.origin) + " hops " + std::to_string(t.hop_count) +
          " prev " + std::to_string(t.prev_hop) + " seq " +
          std::to_string(t.routing_seq);
  return text;
}

/// Reports the first entry at which two logs differ, if they do.
template <class Entry>
void expect_same_log(const std::vector<Entry>& got,
                     const std::vector<Entry>& want, const std::string& what) {
  const auto mismatch =
      std::mismatch(got.begin(), got.end(), want.begin(), want.end());
  if (mismatch.first == got.end() && mismatch.second == want.end()) return;
  const auto at = mismatch.first - got.begin();
  ADD_FAILURE() << what << " differ at entry " << at << " of " << got.size()
                << " / " << want.size() << ": engine "
                << (mismatch.first != got.end() ? describe(*mismatch.first)
                                                : "-")
                << ", reference "
                << (mismatch.second != want.end() ? describe(*mismatch.second)
                                                  : "-");
}

/// Engine and reference agree on everything observable so far.
void expect_same(const Engine& engine, const ReferenceNetwork& ref,
                 const std::string& where) {
  expect_same_log(engine.observer.trace(), ref.deliveries(),
                  where + ": delivery traces");
  expect_same_log(engine.sent, ref.transmissions(),
                  where + ": transmission logs");
  const Network& net = *engine.net;
  EXPECT_EQ(net.packets_originated(), ref.originated()) << where;
  EXPECT_EQ(net.packets_delivered(), ref.delivered()) << where;
  EXPECT_EQ(net.total_buffered(), ref.buffered()) << where;
  EXPECT_EQ(engine.sim.events_executed(), ref.events_executed()) << where;
  for (NodeId id = 0; id < net.topology().node_count(); ++id) {
    if (!ref.forwards(id)) continue;
    const std::string node = where + " node " + std::to_string(id);
    EXPECT_EQ(net.node_preemptions(id), ref.preemptions(id)) << node;
    EXPECT_EQ(net.node_drops(id), ref.drops(id)) << node;
    EXPECT_EQ(net.node_buffered(id), ref.buffered(id)) << node;
  }
}

/// Runs one scenario through the reference and the engine (both
/// constructors when uniform) with the same checkpoints, comparing at each.
void run_differential(std::uint64_t seed, const Scenario& s, Coverage& cov) {
  for (const bool per_node : {true, false}) {
    if (!per_node && !s.uniform) continue;
    const std::string where = "seed " + std::to_string(seed) +
                              (per_node ? " NodeSpecs" : " first-touch");
    ReferenceNetwork ref(s.topology, s.specs, s.timing,
                         sim::RandomStream(s.root_seed), s.injections);
    Engine engine(s, per_node);
    for (const double fraction : {0.25, 0.5}) {
      const double deadline = fraction * s.horizon;
      EXPECT_EQ(engine.sim.run_until(deadline), ref.run_until(deadline))
          << where << " run_until " << deadline;
      expect_same(engine, ref, where + " run_until");
    }
    const std::uint64_t stop_at = ref.delivered() + 1 + seed % 7;
    engine.observer.stop_after = stop_at;
    EXPECT_EQ(engine.sim.run(), ref.run(stop_at)) << where << " stop";
    expect_same(engine, ref, where + " stop");
    cov.stopped_mid_run |= engine.sim.pending_events() > 0;
    engine.observer.stop_after = ReferenceNetwork::kNoStop;
    const double deadline = 0.75 * s.horizon;
    EXPECT_EQ(engine.sim.run_until(deadline), ref.run_until(deadline)) << where;
    EXPECT_EQ(engine.sim.run(), ref.run()) << where << " run";
    expect_same(engine, ref, where + " end");
    EXPECT_EQ(engine.net->total_buffered(), 0u) << where;

    cov.both_constructors |= !per_node;
    cov.ties += ref.tied_events();
    for (NodeId id = 0; id < s.topology.node_count(); ++id) {
      if (!ref.forwards(id) || ref.handled(id) == 0) continue;
      const DisciplineSpec& spec = s.specs[id];
      cov.kinds[static_cast<std::size_t>(spec.kind)] = true;
      if (ref.preemptions(id) > 0) {
        cov.preempted_by[static_cast<std::size_t>(spec.victim)] = true;
      }
      cov.dropped |= ref.drops(id) > 0;
      cov.constant_delay |= dynamic_cast<const core::ConstantDelay*>(
                                spec.delay.get()) != nullptr;
    }
    cov.jitter |= s.timing.hop_jitter > 0.0;
  }
}

TEST(ReferenceNetwork, ImmediateLineDeliversOneTauPerHop) {
  const Topology line = Topology::line(5);  // node 0 is the source, 4 the sink
  const std::vector<DisciplineSpec> specs(5, DisciplineSpec::immediate());
  ReferenceNetwork ref(line, specs, {2.0, 0.0}, sim::RandomStream(1),
                       {{0.0, 0}, {1.5, 0}, {1.5, 2}});
  EXPECT_EQ(ref.run(), 3u + 4u + 4u + 2u);  // injections plus link arrivals
  // Node 3 forwards uid 2 (at 3.5), then uid 0 (6.0), then uid 1 (7.5).
  const std::vector<Delivery> want = {{2, 2, 5.5, 2, 3, 0},
                                      {0, 0, 8.0, 4, 3, 1},
                                      {1, 0, 9.5, 4, 3, 2}};
  EXPECT_EQ(ref.deliveries(), want);
  // Every hop is logged with the header as it leaves: node 0 stamps seq 0
  // then 1, and the hop count grows by one per link.
  ASSERT_EQ(ref.transmissions().size(), 4u + 4u + 2u);
  const std::vector<Transmission> first_hops = {{0, 0, 1, 0.0, 0, 1, 0, 0},
                                                {1, 0, 1, 1.5, 0, 1, 0, 1},
                                                {2, 2, 3, 1.5, 2, 1, 2, 0},
                                                {0, 1, 2, 2.0, 0, 2, 1, 0}};
  EXPECT_EQ(std::vector<Transmission>(ref.transmissions().begin(),
                                      ref.transmissions().begin() + 4),
            first_hops);
}

TEST(ReferenceNetwork, RejectsBadOrigins) {
  const Topology line = Topology::line(3);
  std::vector<DisciplineSpec> specs(3, DisciplineSpec::immediate());
  EXPECT_THROW(
      ReferenceNetwork(line, specs, {}, sim::RandomStream(1), {{0.0, 2}}),
      std::invalid_argument);  // node 2 is the sink
}

// Every fuzz axis, drawn at random: engine and reference agree at every
// checkpoint, and the seeds cover all four schemes, all four victim rules
// preempting, drops, exact ties, jitter, constant delays, both
// constructors and a stop() that leaves work pending.
TEST(ReferenceNetwork, RandomScenariosMatchEngine) {
  Coverage cov;
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    run_differential(seed, draw_scenario(seed), cov);
    if (::testing::Test::HasFailure()) return;  // report one failing seed
  }
  for (std::size_t kind = 0; kind < cov.kinds.size(); ++kind) {
    EXPECT_TRUE(cov.kinds[kind]) << "scheme kind " << kind << " never drawn";
  }
  for (std::size_t policy = 0; policy < cov.preempted_by.size(); ++policy) {
    EXPECT_TRUE(cov.preempted_by[policy])
        << core::to_string(static_cast<VictimPolicy>(policy))
        << " never preempted";
  }
  EXPECT_TRUE(cov.dropped);
  EXPECT_GT(cov.ties, 0u);
  EXPECT_TRUE(cov.jitter);
  EXPECT_TRUE(cov.constant_delay);
  EXPECT_TRUE(cov.both_constructors);
  EXPECT_TRUE(cov.stopped_mid_run);
}

// Exact ties on purpose: equal-length branches fed in lockstep meet at the
// trunk at the same instants, and a constant delay gives the packets equal
// release times, so preemption must break release-time ties by admission
// order and the event order must break time ties by sequence number.
TEST(ReferenceNetwork, LockstepBranchesTieExactlyAndMatchEngine) {
  Coverage cov;
  for (std::uint64_t seed = 0; seed < 48; ++seed) {
    sim::RandomStream rng(0x71e5000000000000ULL + seed);
    const auto hops = static_cast<std::uint16_t>(3 + rng.uniform_index(3));
    ConvergingPaths paths = Topology::converging_paths({hops, hops, hops}, 2);
    Scenario s{paths.topology};
    s.uniform = true;
    const std::size_t k = 1 + rng.uniform_index(2);
    const auto delay = std::make_shared<core::ConstantDelay>(
        static_cast<double>(1 + rng.uniform_index(3)));
    const auto victim = static_cast<VictimPolicy>(seed % 4);
    s.specs.assign(s.topology.node_count(),
                   seed % 8 == 7 ? DisciplineSpec::droptail(delay, k)
                                 : DisciplineSpec::rcad(delay, k, victim));
    s.horizon = 24.0;
    const double period = 1.0 + static_cast<double>(rng.uniform_index(2));
    for (double t = 0.0; t < s.horizon; t += period) {
      for (NodeId source : paths.sources) s.injections.push_back({t, source});
    }
    s.root_seed = rng.bits();
    run_differential(seed, s, cov);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(cov.ties, 0u);
  for (std::size_t policy = 0; policy < cov.preempted_by.size(); ++policy) {
    EXPECT_TRUE(cov.preempted_by[policy])
        << core::to_string(static_cast<VictimPolicy>(policy))
        << " never preempted";
  }
}

}  // namespace
}  // namespace tempriv::net
