#include "net/network.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "adversary/estimator.h"
#include "adversary/ground_truth.h"
#include "core/discipline_spec.h"
#include "crypto/payload.h"
#include "workload/source.h"

namespace tempriv::net {
namespace {

crypto::PayloadCodec& test_codec() {
  static crypto::PayloadCodec codec(crypto::Speck64_128::Key{
      1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  return codec;
}

crypto::SealedPayload sealed_at(double creation, NodeId origin,
                                std::uint32_t seq = 0) {
  return test_codec().seal({1.0, seq, creation}, origin);
}

/// Line 0 - 1 - ... - (n-1) with the sink at n-1, as Topology::line builds
/// it, plus `extra_sinks` registered after it and one unconnected node n.
Topology line_with_island(std::size_t n,
                          std::initializer_list<NodeId> extra_sinks = {}) {
  TopologyBuilder builder;
  for (std::size_t i = 0; i <= n; ++i) builder.add_node();
  for (NodeId i = 0; i + 1 < n; ++i) builder.add_edge(i, i + 1);
  builder.set_sink(static_cast<NodeId>(n - 1));
  for (NodeId sink : extra_sinks) builder.add_sink(sink);
  return builder.build();
}

struct RecordingObserver final : SinkObserver {
  struct Delivery {
    Packet packet;
    sim::Time arrival;
  };
  std::vector<Delivery> deliveries;
  void on_delivery(const Packet& packet, sim::Time arrival) override {
    deliveries.push_back({packet, arrival});
  }
};

TEST(Network, ImmediateForwardingDeliversAtHopCountTimesTau) {
  sim::Simulator sim;
  const Topology topo = Topology::line(6);  // node 0 is 5 hops from the sink
  Network net(sim, topo, core::DisciplineSpec::immediate(),
              {.hop_tx_delay = 1.0},
              sim::RandomStream(1));
  RecordingObserver observer;
  net.add_sink_observer(&observer);
  net.originate(0, sealed_at(0.0, 0));
  sim.run();
  ASSERT_EQ(observer.deliveries.size(), 1u);
  EXPECT_DOUBLE_EQ(observer.deliveries[0].arrival, 5.0);
  EXPECT_EQ(observer.deliveries[0].packet.header.hop_count, 5);
  EXPECT_EQ(observer.deliveries[0].packet.header.origin, 0u);
  EXPECT_EQ(observer.deliveries[0].packet.header.prev_hop, 4u);
}

TEST(Network, CustomTauScalesLatency) {
  sim::Simulator sim;
  const Topology topo = Topology::line(4);
  Network net(sim, topo, core::DisciplineSpec::immediate(),
              {.hop_tx_delay = 2.5},
              sim::RandomStream(1));
  RecordingObserver observer;
  net.add_sink_observer(&observer);
  net.originate(0, sealed_at(0.0, 0));
  sim.run();
  ASSERT_EQ(observer.deliveries.size(), 1u);
  EXPECT_DOUBLE_EQ(observer.deliveries[0].arrival, 3 * 2.5);
}

TEST(Network, RejectsNonPositiveTau) {
  sim::Simulator sim;
  EXPECT_THROW(Network(sim, Topology::line(2),
                       core::DisciplineSpec::immediate(),
                       {.hop_tx_delay = 0.0}, sim::RandomStream(1)),
               std::invalid_argument);
}

TEST(Network, RejectsBadOrigins) {
  sim::Simulator sim;
  const Topology topo = line_with_island(3);
  const NodeId island = 3;
  Network net(sim, topo, core::DisciplineSpec::immediate(),
              {}, sim::RandomStream(1));
  EXPECT_THROW(net.originate(topo.sink(), sealed_at(0.0, 2)),
               std::invalid_argument);
  EXPECT_THROW(net.originate(island, sealed_at(0.0, island)),
               std::invalid_argument);
  EXPECT_THROW(net.originate(99, sealed_at(0.0, 99)), std::invalid_argument);
}

TEST(Network, PayloadArrivesIntactAndDecryptable) {
  sim::Simulator sim;
  Network net(sim, Topology::line(3), core::DisciplineSpec::immediate(), {},
              sim::RandomStream(1));
  RecordingObserver observer;
  net.add_sink_observer(&observer);
  net.originate(0, sealed_at(123.25, 0, 77));
  sim.run();
  ASSERT_EQ(observer.deliveries.size(), 1u);
  const auto opened = test_codec().open(observer.deliveries[0].packet.payload);
  ASSERT_TRUE(opened.has_value());
  EXPECT_DOUBLE_EQ(opened->creation_time, 123.25);
  EXPECT_EQ(opened->app_seq, 77u);
}

TEST(Network, MultipleObserversAllSeeEveryDelivery) {
  sim::Simulator sim;
  Network net(sim, Topology::line(3), core::DisciplineSpec::immediate(), {},
              sim::RandomStream(1));
  RecordingObserver a;
  RecordingObserver b;
  net.add_sink_observer(&a);
  net.add_sink_observer(&b);
  net.originate(0, sealed_at(0.0, 0));
  net.originate(1, sealed_at(0.0, 1, 1));
  sim.run();
  EXPECT_EQ(a.deliveries.size(), 2u);
  EXPECT_EQ(b.deliveries.size(), 2u);
  EXPECT_THROW(net.add_sink_observer(nullptr), std::invalid_argument);
}

TEST(Network, UidsAreUniqueAndCountersTrack) {
  sim::Simulator sim;
  Network net(sim, Topology::line(4), core::DisciplineSpec::immediate(), {},
              sim::RandomStream(1));
  RecordingObserver observer;
  net.add_sink_observer(&observer);
  const std::uint64_t a = net.originate(0, sealed_at(0.0, 0, 0));
  const std::uint64_t b = net.originate(0, sealed_at(0.0, 0, 1));
  EXPECT_NE(a, b);
  sim.run();
  EXPECT_EQ(net.packets_originated(), 2u);
  EXPECT_EQ(net.packets_delivered(), 2u);
  EXPECT_NE(observer.deliveries[0].packet.uid, observer.deliveries[1].packet.uid);
}

TEST(Network, FailedOriginateDoesNotCountAsOriginated) {
  // Regression: packets_originated used to report the uid counter, which
  // only moved on success — but a rejected originate must leave the tally
  // alone and must not burn a uid either.
  sim::Simulator sim;
  const Topology topo = line_with_island(3);
  const NodeId island = 3;
  Network net(sim, topo, core::DisciplineSpec::immediate(),
              {}, sim::RandomStream(1));
  EXPECT_THROW(net.originate(topo.sink(), sealed_at(0.0, 2)),
               std::invalid_argument);
  EXPECT_THROW(net.originate(island, sealed_at(0.0, island)),
               std::invalid_argument);
  EXPECT_EQ(net.packets_originated(), 0u);
  const std::uint64_t uid = net.originate(0, sealed_at(0.0, 0));
  EXPECT_EQ(uid, 0u);  // rejected attempts consumed no uids
  EXPECT_EQ(net.packets_originated(), 1u);
  sim.run();
  EXPECT_EQ(net.packets_delivered(), 1u);
}

TEST(Network, InFlightCountTracksLinkTraversals) {
  sim::Simulator sim;
  Network net(sim, Topology::line(4), core::DisciplineSpec::immediate(), {},
              sim::RandomStream(1));
  net.reserve(8);
  EXPECT_EQ(net.packets_in_flight(), 0u);
  net.originate(0, sealed_at(0.0, 0));
  EXPECT_EQ(net.packets_in_flight(), 1u);  // on its first hop
  EXPECT_EQ(net.packets_live(), 1u);
  sim.run();
  EXPECT_EQ(net.packets_in_flight(), 0u);
  EXPECT_EQ(net.packets_live(), 0u);  // pool drains by run end
}

TEST(Network, DropTailRunEndsWithNoLivePoolSlots) {
  // A drop-tail node refuses arrivals at capacity; a refused packet leaves
  // the pool at once, so a drained run holds no packet at all. Mid-run,
  // every live slot is a buffered or in-flight packet.
  sim::Simulator sim;
  Network net(sim, Topology::line(4),
              core::DisciplineSpec::droptail(
                  std::make_shared<core::ConstantDelay>(5.0), 2),
              {}, sim::RandomStream(4));
  for (std::uint32_t i = 0; i < 6; ++i) net.originate(0, sealed_at(0.0, 0, i));
  EXPECT_EQ(net.total_drops(), 4u);  // node 0 holds two of six
  EXPECT_EQ(net.packets_live(), 2u);
  sim.run_until(5.5);  // both released at 5, on the link to node 1
  EXPECT_EQ(net.packets_live(),
            net.total_buffered() + net.packets_in_flight());
  sim.run();
  EXPECT_EQ(net.packets_delivered(), 2u);
  EXPECT_EQ(net.packets_originated(),
            net.packets_delivered() + net.total_drops());
  EXPECT_EQ(net.packets_live(), 0u);
  EXPECT_EQ(net.packets_in_flight(), 0u);
}

TEST(Network, MemoryBytesCountsTheInFlightPool) {
  sim::Simulator sim;
  Network net(sim, Topology::line(4), core::DisciplineSpec::immediate(), {},
              sim::RandomStream(1));
  const std::size_t before = net.memory_bytes();
  net.reserve(1000);
  EXPECT_GE(net.memory_bytes() - before, 1000 * sizeof(Packet));
}

TEST(Network, NodeSpecsReceiveHopsFromTheRoutingTree) {
  // The hop count a node's policy is chosen by (the §3.3 sink-weighted
  // decomposition) comes from the shared routing tree, once per forwarding
  // node in ascending id order; sinks and unroutable nodes get no spec.
  std::vector<std::pair<NodeId, std::uint16_t>> seen;
  sim::Simulator sim;
  Network net(sim, line_with_island(4),
              NodeSpecs([&seen](NodeId id, std::uint16_t hops) {
                seen.emplace_back(id, hops);
                return core::DisciplineSpec::immediate();
              }),
              {}, sim::RandomStream(1));
  const std::vector<std::pair<NodeId, std::uint16_t>> expected = {
      {0, 3}, {1, 2}, {2, 1}};
  EXPECT_EQ(seen, expected);
}

TEST(Network, HopCountCountsActualPathNotTopologySize) {
  sim::Simulator sim;
  const auto built = Topology::converging_paths({7, 4}, 2);
  Network net(sim, built.topology, core::DisciplineSpec::immediate(), {},
              sim::RandomStream(1));
  RecordingObserver observer;
  net.add_sink_observer(&observer);
  net.originate(built.sources[0], sealed_at(0.0, built.sources[0]));
  net.originate(built.sources[1], sealed_at(0.0, built.sources[1]));
  sim.run();
  ASSERT_EQ(observer.deliveries.size(), 2u);
  // Shorter path arrives first with tau = 1.
  EXPECT_EQ(observer.deliveries[0].packet.header.hop_count, 4);
  EXPECT_EQ(observer.deliveries[1].packet.header.hop_count, 7);
}

TEST(Network, OccupancyProbeFiresOnArrivalsAndTransmissions) {
  sim::Simulator sim;
  Network net(sim, Topology::line(3), core::DisciplineSpec::immediate(), {},
              sim::RandomStream(1));
  int probes = 0;
  std::size_t max_seen = 0;
  net.set_occupancy_probe([&](NodeId, sim::Time, std::size_t occ) {
    ++probes;
    max_seen = std::max(max_seen, occ);
  });
  net.originate(0, sealed_at(0.0, 0));
  sim.run();
  EXPECT_GT(probes, 0);
  EXPECT_EQ(max_seen, 0u);  // immediate forwarding never buffers
}

TEST(Network, PerNodeStatAccessorsExposeStats) {
  sim::Simulator sim;
  Network net(sim, Topology::line(3), core::DisciplineSpec::immediate(), {},
              sim::RandomStream(1));
  EXPECT_EQ(net.node_buffered(0), 0u);
  EXPECT_EQ(net.node_preemptions(0), 0u);
  EXPECT_EQ(net.node_drops(0), 0u);
  EXPECT_THROW(net.node_buffered(net.topology().sink()), std::out_of_range);
  EXPECT_THROW(net.node_preemptions(net.topology().sink()), std::out_of_range);
  EXPECT_THROW(net.node_drops(net.topology().sink()), std::out_of_range);
  EXPECT_THROW(net.node_buffered(42), std::out_of_range);
  EXPECT_EQ(net.total_buffered(), 0u);
  EXPECT_EQ(net.total_preemptions(), 0u);
  EXPECT_EQ(net.total_drops(), 0u);
}

TEST(Network, UniformSpecMatchesPerNodeSpecNetwork) {
  // Both constructors must build the same network: same deliveries at the
  // same instants and the same losses for the same root RNG, whether every
  // node shares one spec or each node gets its own (fresh distribution
  // objects, so one slab configuration per node).
  const std::vector<core::DisciplineSpec> specs = {
      core::DisciplineSpec::unlimited_exponential(4.0),
      core::DisciplineSpec::droptail_exponential(4.0, 2),
      core::DisciplineSpec::rcad_exponential(4.0, 2),
      core::DisciplineSpec::rcad_exponential(4.0, 2, core::VictimPolicy::kRandom),
  };
  for (const core::DisciplineSpec& spec : specs) {
    const NodeSpecs per_node = [&spec](NodeId, std::uint16_t) {
      core::DisciplineSpec copy = spec;
      copy.delay = std::make_shared<core::ExponentialDelay>(4.0);
      return copy;
    };
    const auto run = [&](bool uniform) {
      sim::Simulator sim;
      const auto built = Topology::converging_paths({6, 5}, 2);
      std::optional<Network> net;
      const NetworkConfig config{.hop_jitter = 0.5};
      if (uniform) {
        net.emplace(sim, built.topology, spec, config, sim::RandomStream(9));
      } else {
        net.emplace(sim, built.topology, per_node, config, sim::RandomStream(9));
      }
      RecordingObserver observer;
      net->add_sink_observer(&observer);
      for (std::uint32_t i = 0; i < 12; ++i) {
        const NodeId origin = built.sources[i % 2];
        net->originate(origin, sealed_at(0.0, origin, i));
      }
      sim.run();
      std::vector<std::pair<std::uint64_t, double>> out;
      for (const auto& d : observer.deliveries) {
        out.emplace_back(d.packet.uid, d.arrival);
      }
      out.emplace_back(net->total_drops(), net->total_preemptions());
      return out;
    };
    EXPECT_EQ(run(true), run(false)) << static_cast<int>(spec.kind);
  }
}

TEST(Network, PerNodeSpecsMixAllFourSchemes) {
  // Line 0-1-2-3-4-5 (sink 5), all constant delays of 5 so every count is
  // exact: node 0 forwards, node 1 holds all six packets (unlimited), node
  // 2 keeps four and drops two (drop-tail, k = 4), node 3 admits two and
  // preempts two (RCAD, k = 2), node 4 forwards to the sink.
  sim::Simulator sim;
  const auto hold = std::make_shared<core::ConstantDelay>(5.0);
  Network net(sim, Topology::line(6),
              NodeSpecs([&hold](NodeId id, std::uint16_t) {
                switch (id) {
                  case 1:
                    return core::DisciplineSpec::unlimited(hold);
                  case 2:
                    return core::DisciplineSpec::droptail(hold, 4);
                  case 3:
                    return core::DisciplineSpec::rcad(hold, 2);
                  default:
                    return core::DisciplineSpec::immediate();
                }
              }),
              {}, sim::RandomStream(3));
  RecordingObserver observer;
  net.add_sink_observer(&observer);
  for (std::uint32_t i = 0; i < 6; ++i) net.originate(0, sealed_at(0.0, 0, i));

  using Counts = std::vector<std::uint64_t>;
  const auto per_node = [&net](auto stat) {
    Counts counts;
    for (NodeId id = 0; id < 5; ++id) counts.push_back((net.*stat)(id));
    return counts;
  };
  sim.run_until(1.5);  // all six held at node 1
  EXPECT_EQ(per_node(&Network::node_buffered), (Counts{0, 6, 0, 0, 0}));
  sim.run_until(7.5);  // released at 6, four admitted at node 2 at 7
  EXPECT_EQ(per_node(&Network::node_buffered), (Counts{0, 0, 4, 0, 0}));
  sim.run_until(13.5);  // released at 12, node 3 holds k = 2 from 13
  EXPECT_EQ(per_node(&Network::node_buffered), (Counts{0, 0, 0, 2, 0}));
  sim.run();
  EXPECT_EQ(per_node(&Network::node_drops), (Counts{0, 0, 2, 0, 0}));
  EXPECT_EQ(per_node(&Network::node_preemptions), (Counts{0, 0, 0, 2, 0}));
  EXPECT_EQ(net.total_drops(), 2u);
  EXPECT_EQ(net.total_preemptions(), 2u);
  // Conservation: originated = delivered + dropped + buffered + in flight.
  EXPECT_EQ(net.packets_delivered(), 4u);
  EXPECT_EQ(net.packets_originated(),
            net.packets_delivered() + net.total_drops() + net.total_buffered() +
                net.packets_in_flight());
  // The two victims left node 3 at 13 (sink at 15); the two it kept were
  // released at 18 (sink at 20).
  std::vector<double> arrivals;
  for (const auto& d : observer.deliveries) arrivals.push_back(d.arrival);
  EXPECT_EQ(arrivals, (std::vector<double>{15.0, 15.0, 20.0, 20.0}));
}

TEST(Network, PerNodeSpecsKeepEachNodesRule) {
  // Equal consecutive specs share a slab configuration; a change of rule
  // and a change back must each get their own. Queues are created in
  // ascending node id, so queue i belongs to node i here.
  sim::Simulator sim;
  const auto hold = std::make_shared<core::ConstantDelay>(5.0);
  const core::DisciplineSpec droptail = core::DisciplineSpec::droptail(hold, 1);
  const core::DisciplineSpec rcad = core::DisciplineSpec::rcad(hold, 1);
  const std::vector<core::DisciplineSpec> by_node = {droptail, droptail, rcad,
                                                     droptail};
  Network net(sim, Topology::line(5),
              NodeSpecs([&by_node](NodeId id, std::uint16_t) {
                return by_node[id];
              }),
              {}, sim::RandomStream(1));
  const core::DelayBuffer& slab = net.buffer_slab();
  ASSERT_EQ(slab.queue_count(), 4u);
  for (std::uint32_t queue = 0; queue < 4; ++queue) {
    EXPECT_TRUE(slab.config(queue) == by_node[queue].queue_config()) << queue;
  }
}

TEST(ImmediateForwarding, TransmitsInstantly) {
  sim::Simulator sim;
  Network net(sim, Topology::line(3), core::DisciplineSpec::immediate(), {},
              sim::RandomStream(1));
  std::vector<std::pair<NodeId, sim::Time>> sent;
  net.add_transmit_probe(
      [&sent](NodeId from, NodeId, const Packet&, sim::Time now) {
        sent.emplace_back(from, now);
      });
  net.originate(0, sealed_at(0.0, 0));
  // Handed to the link inside originate(), at t = 0.
  EXPECT_EQ(sent, (std::vector<std::pair<NodeId, sim::Time>>{{0, 0.0}}));
  EXPECT_EQ(net.node_buffered(0), 0u);
  sim.run();
  EXPECT_EQ(net.node_preemptions(0), 0u);
  EXPECT_EQ(net.node_drops(0), 0u);
  EXPECT_EQ(net.packets_delivered(), 1u);
}

TEST(Network, BufferSlabStaysConsistentMidRun) {
  // Every buffering node is one queue of the network-wide slab: mid-run the
  // slab's live slots must equal the per-node occupancies, and each queue's
  // list and victim heap must hold exactly its own packets.
  for (const bool uniform : {true, false}) {
    sim::Simulator sim;
    const auto built = Topology::converging_paths({6, 5, 4}, 2);
    std::optional<Network> net;
    if (uniform) {
      net.emplace(sim, built.topology,
                  core::DisciplineSpec::rcad_exponential(6.0, 3), NetworkConfig{},
                  sim::RandomStream(5));
    } else {
      net.emplace(sim, built.topology,
                  NodeSpecs([](NodeId, std::uint16_t) {
                    return core::DisciplineSpec::droptail_exponential(6.0, 3);
                  }),
                  NetworkConfig{}, sim::RandomStream(5));
      // Per-node specs are adopted eagerly: every forwarding node has its
      // queue before the first packet.
      EXPECT_EQ(net->buffer_slab().queue_count(),
                net->topology().node_count() - 1);
    }
    std::set<NodeId> carried;  // nodes that transmitted a packet
    net->add_transmit_probe([&carried](NodeId from, NodeId, const Packet&,
                                       sim::Time) { carried.insert(from); });
    for (std::uint32_t i = 0; i < 60; ++i) {
      const NodeId origin = built.sources[i % 3];
      net->originate(origin, sealed_at(sim.now(), origin, i));
      sim.run_until(sim.now() + 0.5);
      const core::DelayBuffer& slab = net->buffer_slab();
      ASSERT_TRUE(slab.consistent()) << "uniform " << uniform << " packet " << i;
      std::size_t per_node = 0;
      for (NodeId id = 0; id < net->topology().node_count(); ++id) {
        if (id != net->topology().sink()) per_node += net->node_buffered(id);
      }
      ASSERT_EQ(slab.size(), per_node);
      ASSERT_EQ(net->total_buffered(), per_node);
    }
    sim.run();
    EXPECT_EQ(net->buffer_slab().size(), 0u);
    EXPECT_TRUE(net->buffer_slab().consistent());
    EXPECT_EQ(net->packets_originated(),
              net->packets_delivered() + net->total_drops());
    if (uniform) {
      // One spec is adopted on first touch: a queue for exactly the nodes
      // a packet reached (RCAD transmits everything it admits).
      EXPECT_EQ(net->buffer_slab().queue_count(), carried.size());
    }
  }
}

TEST(Network, MultiSinkDeliversToNearestSink) {
  // Line 0-1-2-3-4 with sinks at both ends: each node routes to its nearest
  // sink (node 1 → sink 0 at 1 hop, node 3 → sink 4 at 1 hop).
  sim::Simulator sim;
  const Topology topo = line_with_island(5, {0});  // sinks 4 and 0
  const RoutingTable routing(topo);
  EXPECT_EQ(routing.sink_of(1), 0u);
  EXPECT_EQ(routing.sink_of(3), 4u);
  Network net(sim, topo, core::DisciplineSpec::immediate(),
              {}, sim::RandomStream(1));
  RecordingObserver observer;
  net.add_sink_observer(&observer);
  net.originate(1, sealed_at(0.0, 1));
  net.originate(3, sealed_at(0.0, 3, 1));
  sim.run();
  ASSERT_EQ(observer.deliveries.size(), 2u);
  // Both are one hop from their nearest sink.
  EXPECT_DOUBLE_EQ(observer.deliveries[0].arrival, 1.0);
  EXPECT_DOUBLE_EQ(observer.deliveries[1].arrival, 1.0);
  // Originating at a secondary sink is rejected like the primary.
  EXPECT_THROW(net.originate(0, sealed_at(0.0, 0)), std::invalid_argument);
}

TEST(Network, PacketsFromDifferentFlowsInterleaveCorrectly) {
  sim::Simulator sim;
  const auto built = Topology::converging_paths({5, 5}, 1);
  Network net(sim, built.topology, core::DisciplineSpec::immediate(), {},
              sim::RandomStream(1));
  RecordingObserver observer;
  net.add_sink_observer(&observer);
  for (std::uint32_t i = 0; i < 3; ++i) {
    sim.schedule_at(i * 2.0, [&net, &built, i] {
      net.originate(built.sources[0], sealed_at(i * 2.0, built.sources[0], i));
      net.originate(built.sources[1], sealed_at(i * 2.0, built.sources[1], i));
    });
  }
  sim.run();
  EXPECT_EQ(observer.deliveries.size(), 6u);
  for (const auto& d : observer.deliveries) {
    EXPECT_EQ(d.packet.header.hop_count, 5);
    const auto opened = test_codec().open(d.packet.payload);
    ASSERT_TRUE(opened.has_value());
    EXPECT_DOUBLE_EQ(d.arrival - opened->creation_time, 5.0);
  }
}

TEST(Network, SlabConservesEveryAdmissionUnderEveryVictimRule) {
  // Every admitted packet leaves its queue once — through its release
  // event or as a preemption victim — or is still held, at every point of
  // the run; a drained run has released all but the victims, and the
  // kernel ran exactly the events it scheduled.
  for (const core::VictimPolicy victim :
       {core::VictimPolicy::kShortestRemaining,
        core::VictimPolicy::kLongestRemaining, core::VictimPolicy::kRandom,
        core::VictimPolicy::kOldest}) {
    sim::Simulator sim;
    const auto built = Topology::converging_paths({6, 5, 4}, 2);
    Network net(sim, built.topology,
                core::DisciplineSpec::rcad_exponential(20.0, 2, victim),
                NetworkConfig{.hop_tx_delay = 1.0, .hop_jitter = 0.5},
                sim::RandomStream(9));
    const core::DelayBuffer& slab = net.buffer_slab();
    for (std::uint32_t i = 0; i < 300; ++i) {
      const NodeId origin = built.sources[i % 3];
      net.originate(origin, sealed_at(sim.now(), origin, i));
      sim.run_until(sim.now() + 0.25);
      ASSERT_EQ(slab.admitted(),
                slab.released() + slab.preempted() + slab.size())
          << to_string(victim);
    }
    sim.run();
    EXPECT_GT(net.total_preemptions(), 100u) << to_string(victim);
    EXPECT_EQ(slab.preempted(), net.total_preemptions()) << to_string(victim);
    EXPECT_EQ(slab.size(), 0u);
    EXPECT_EQ(slab.admitted(), slab.released() + slab.preempted())
        << to_string(victim);
    EXPECT_EQ(sim.queue().scheduled_heap() + sim.queue().scheduled_fifo(),
              sim.events_executed())
        << to_string(victim);
  }
}

TEST(HopJitter, AddsBoundedLinkDelay) {
  sim::Simulator sim;
  Network network(sim, Topology::line(6), core::DisciplineSpec::immediate(),
                  {.hop_tx_delay = 1.0, .hop_jitter = 0.5},
                  sim::RandomStream(1));
  adversary::GroundTruthRecorder truth(test_codec());
  network.add_sink_observer(&truth);
  workload::PeriodicSource source(network, test_codec(), 0,
                                  sim::RandomStream(2), 5.0, 500);
  source.start(0.0);
  sim.run();
  // Latency in [h*tau, h*(tau+jitter)) with mean h*(tau + jitter/2).
  EXPECT_GE(truth.latency(0).min(), 5.0);
  EXPECT_LT(truth.latency(0).max(), 5.0 * 1.5);
  EXPECT_NEAR(truth.latency(0).mean(), 5.0 * 1.25, 0.1);
}

TEST(HopJitter, MakesNoDelayMseSmallButNonzero) {
  // The paper's case-1 curve is "very small" rather than exactly zero;
  // MAC jitter reproduces that. Adversary knows the mean per-hop delay.
  sim::Simulator sim;
  Network network(sim, Topology::line(6), core::DisciplineSpec::immediate(),
                  {.hop_tx_delay = 1.0, .hop_jitter = 0.5},
                  sim::RandomStream(3));
  adversary::BaselineAdversary adv(1.25, 0.0);  // tau + jitter/2
  adversary::GroundTruthRecorder truth(test_codec());
  network.add_sink_observer(&adv);
  network.add_sink_observer(&truth);
  workload::PeriodicSource source(network, test_codec(), 0,
                                  sim::RandomStream(4), 5.0, 2000);
  source.start(0.0);
  sim.run();
  const double mse = truth.score_all(adv).mse();
  // Theoretical: h * jitter^2/12 = 5 * 0.25/12 ≈ 0.104.
  EXPECT_GT(mse, 0.05);
  EXPECT_LT(mse, 0.2);
}

TEST(HopJitter, RejectsNegativeJitter) {
  sim::Simulator sim;
  EXPECT_THROW(Network(sim, Topology::line(3),
                       core::DisciplineSpec::immediate(),
                       {.hop_tx_delay = 1.0, .hop_jitter = -0.1},
                       sim::RandomStream(1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace tempriv::net
