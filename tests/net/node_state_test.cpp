// Node state follows traffic: under one spec a node gets its
// record and slab queue when a packet first reaches it, untouched nodes
// cost only their index entry, and the order nodes are first touched in
// changes no random draw.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/discipline_spec.h"
#include "crypto/payload.h"
#include "net/network.h"

namespace tempriv::net {
namespace {

crypto::SealedPayload sealed_at(double creation, NodeId origin,
                                std::uint32_t seq) {
  static const crypto::PayloadCodec codec(crypto::Speck64_128::Key{
      1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  return codec.seal({1.0, seq, creation}, origin);
}

constexpr std::size_t kSide = 100;  // grid(100, 100): sink at node 0

core::DisciplineSpec rcad() {
  return core::DisciplineSpec::rcad_exponential(8.0, 3);
}

/// Originates `packets` packets at `origin`, one per time unit, and runs
/// the simulation to completion.
void send_and_run(sim::Simulator& sim, Network& net, NodeId origin,
                  std::uint32_t packets) {
  for (std::uint32_t i = 0; i < packets; ++i) {
    sim.schedule_at(i, [&net, origin, i] {
      net.originate(origin, sealed_at(i, origin, i));
    });
  }
  sim.run();
}

TEST(NodeState, NoQueuesOrRecordsBeforeAnyPacket) {
  sim::Simulator sim;
  const Topology topo = Topology::grid(kSide, kSide);
  const Network net(sim, topo, rcad(), {}, sim::RandomStream(3));
  EXPECT_EQ(net.buffer_slab().queue_count(), 0u);
  // The per-node index plus one block of records (the sink's); 256 bytes
  // covers the block directory and the one-entry slab configuration table.
  const std::size_t n = topo.node_count();
  EXPECT_LE(net.memory_bytes(),
            n * sizeof(std::uint32_t) + Network::kRecordBlockBytes + 256);
}

TEST(NodeState, QueuesAreMadeForTheNodesOnePathCrosses) {
  sim::Simulator sim;
  const Topology topo = Topology::grid(kSide, kSide);
  Network net(sim, topo, rcad(), {}, sim::RandomStream(3));
  const NodeId origin = kSide * kSide - 1;  // the far corner, 198 hops out
  send_and_run(sim, net, origin, 20);
  EXPECT_EQ(net.packets_delivered(), 20u);
  // One queue per node on the path except the sink.
  EXPECT_EQ(net.buffer_slab().queue_count(),
            net.routing().path_to_sink(origin).size() - 1);
}

TEST(NodeState, UntouchedNodesReportZeroAndNonForwardersThrow) {
  sim::Simulator sim;
  const Topology topo = Topology::grid(kSide, kSide);
  Network net(sim, topo, rcad(), {}, sim::RandomStream(3));
  const NodeId origin = kSide * kSide - 1;
  std::set<NodeId> reached;  // nodes a packet has arrived at
  net.set_occupancy_probe(
      [&reached](NodeId node, sim::Time, std::size_t) { reached.insert(node); });
  for (std::uint32_t i = 0; i < 10; ++i) {
    net.originate(origin, sealed_at(0.0, origin, i));  // 3 slots: preempts
  }
  sim.run_until(2.5);  // mid-run: packets are held along the path
  EXPECT_EQ(net.node_preemptions(origin), 7u);
  ASSERT_GT(net.total_buffered(), 0u);
  // Queues so far: the nodes packets have reached, a prefix of the path.
  const std::size_t queues = net.buffer_slab().queue_count();
  EXPECT_EQ(queues, reached.size());
  const std::vector<NodeId> path = net.routing().path_to_sink(origin);
  EXPECT_LT(queues, path.size() - 1);
  const std::set<NodeId> on_path(path.begin(), path.end());
  std::size_t untouched = 0;
  for (NodeId id = 1; id < topo.node_count(); ++id) {
    if (on_path.count(id) != 0) continue;
    ++untouched;
    ASSERT_EQ(net.node_buffered(id), 0u) << id;
    ASSERT_EQ(net.node_preemptions(id), 0u) << id;
    ASSERT_EQ(net.node_drops(id), 0u) << id;
  }
  EXPECT_EQ(untouched, topo.node_count() - path.size());
  // Queries make no state.
  EXPECT_EQ(net.buffer_slab().queue_count(), queues);

  const NodeId sink = topo.sink();
  const auto unknown = static_cast<NodeId>(topo.node_count());
  for (const NodeId id : {sink, unknown}) {
    EXPECT_THROW(net.node_buffered(id), std::out_of_range) << id;
    EXPECT_THROW(net.node_preemptions(id), std::out_of_range) << id;
    EXPECT_THROW(net.node_drops(id), std::out_of_range) << id;
    EXPECT_THROW(net.originate(id, sealed_at(0.0, id, 0)),
                 std::invalid_argument)
        << id;
  }
}

TEST(NodeState, UnroutableNodesHaveNoDisciplineAndGetNoQueue) {
  // Line 0 - 1 - 2 (sink) plus island node 3.
  TopologyBuilder builder;
  for (int i = 0; i < 4; ++i) builder.add_node();
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.set_sink(2);
  sim::Simulator sim;
  Network net(sim, builder.build(), rcad(), {}, sim::RandomStream(3));
  EXPECT_THROW(net.node_buffered(3), std::out_of_range);
  EXPECT_THROW(net.node_preemptions(3), std::out_of_range);
  EXPECT_THROW(net.node_drops(3), std::out_of_range);
  EXPECT_THROW(net.originate(3, sealed_at(0.0, 3, 0)), std::invalid_argument);
  EXPECT_EQ(net.buffer_slab().queue_count(), 0u);
  EXPECT_EQ(net.packets_originated(), 0u);
}

TEST(NodeState, BranchJoiningAMadeTrunkGetsNoSecondQueue) {
  // Two branches over a 4-hop shared trunk. Branch 0 sends alone until its
  // packets have made the trunk's records; then branch 1's first packet
  // reaches the trunk, whose records its senders find made, and the two
  // branches interleave. Every node either path crosses gets one queue.
  const ConvergingPaths paths = Topology::converging_paths({9, 12}, 4);
  sim::Simulator sim;
  Network net(sim, paths.topology, rcad(), {}, sim::RandomStream(5));
  std::set<NodeId> delivered_from;
  struct Origins final : SinkObserver {
    std::set<NodeId>& seen;
    explicit Origins(std::set<NodeId>& s) : seen(s) {}
    void on_delivery(const Packet& packet, sim::Time) override {
      seen.insert(packet.header.origin);
    }
  } origins(delivered_from);
  net.add_sink_observer(&origins);
  const NodeId a = paths.sources[0];
  const NodeId b = paths.sources[1];
  std::set<NodeId> crossed;
  for (const NodeId source : {a, b}) {
    for (const NodeId id : net.routing().path_to_sink(source)) {
      crossed.insert(id);
    }
  }
  const std::size_t queues = crossed.size() - 1;  // all but the sink
  constexpr std::uint32_t kPackets = 200;
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    sim.schedule_at(i, [&net, a, i] { net.originate(a, sealed_at(i, a, i)); });
  }
  // Branch 1 starts once branch 0 has delivered, so the trunk is made.
  while (delivered_from.empty()) sim.run_until(sim.now() + 1.0);
  ASSERT_EQ(delivered_from.count(b), 0u);
  const std::size_t before_b = net.buffer_slab().queue_count();
  EXPECT_EQ(before_b, net.routing().path_to_sink(a).size() - 1);
  const double start = std::ceil(sim.now());
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    sim.schedule_at(start + i, [&net, b, start, i] {
      net.originate(b, sealed_at(start + i, b, i));
    });
  }
  // Mid-run: both branches have delivered and packets are still held.
  while (delivered_from.size() < 2) sim.run_until(sim.now() + 1.0);
  ASSERT_GT(net.total_buffered(), 0u);
  EXPECT_EQ(net.buffer_slab().queue_count(), queues);
  EXPECT_TRUE(net.buffer_slab().consistent());
  sim.run();
  EXPECT_EQ(net.packets_delivered(), 2 * kPackets);
  EXPECT_EQ(net.buffer_slab().queue_count(), queues);
  EXPECT_TRUE(net.buffer_slab().consistent());
  EXPECT_GT(net.total_preemptions(), 0u);
}

/// Per flow, every delivery as (uid relative to the flow's first packet,
/// arrival time, hop count).
using Trace = std::vector<std::tuple<std::uint64_t, double, std::uint16_t>>;

struct FlowRecorder final : SinkObserver {
  std::map<NodeId, Trace> flows;
  std::map<NodeId, std::uint64_t> first_uid;
  void on_delivery(const Packet& packet, sim::Time arrival) override {
    flows[packet.header.origin].emplace_back(
        packet.uid - first_uid.at(packet.header.origin), arrival,
        packet.header.hop_count);
  }
};

/// Two flows over disjoint paths into one sink — 0-1-2-3-4-[5]-6-7-8-9-10
/// with sources 0 and 10 — both originating at the same instants, with
/// `first` originating first at each instant (and so touching its path's
/// nodes first).
std::map<NodeId, Trace> disjoint_flows(NodeId first, NodeId second) {
  TopologyBuilder builder;
  for (int i = 0; i < 11; ++i) builder.add_node();
  for (NodeId i = 0; i < 10; ++i) builder.add_edge(i, i + 1);
  builder.set_sink(5);
  sim::Simulator sim;
  // Random victims and link jitter add draws beyond the delays.
  Network net(sim, builder.build(),
              core::DisciplineSpec::rcad_exponential(
                  4.0, 2, core::VictimPolicy::kRandom),
              {.hop_tx_delay = 1.0, .hop_jitter = 0.3}, sim::RandomStream(11));
  FlowRecorder recorder;
  net.add_sink_observer(&recorder);
  for (std::uint32_t i = 0; i < 40; ++i) {
    sim.schedule_at(0.5 * i, [&net, &recorder, first, second, i] {
      for (const NodeId origin : {first, second}) {
        const std::uint64_t uid =
            net.originate(origin, sealed_at(0.5 * i, origin, i));
        recorder.first_uid.emplace(origin, uid);
      }
    });
  }
  sim.run();
  EXPECT_EQ(net.packets_delivered(), 80u);
  EXPECT_GT(net.total_preemptions(), 0u);
  return recorder.flows;
}

TEST(NodeState, FirstTouchOrderChangesNoDraw) {
  // A node's stream is root.split(id) whichever order records are made
  // in: each flow's trace is the same whether its path or the other one
  // is touched first.
  const std::map<NodeId, Trace> a_first = disjoint_flows(0, 10);
  const std::map<NodeId, Trace> b_first = disjoint_flows(10, 0);
  ASSERT_EQ(a_first.size(), 2u);
  ASSERT_EQ(a_first.at(0).size(), 40u);
  ASSERT_EQ(a_first.at(10).size(), 40u);
  EXPECT_EQ(a_first.at(0), b_first.at(0));
  EXPECT_EQ(a_first.at(10), b_first.at(10));
}

}  // namespace
}  // namespace tempriv::net
