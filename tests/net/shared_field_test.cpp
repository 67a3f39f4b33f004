// One immutable field, many networks: a Topology handle is shared, never
// copied, so networks running different schemes over one deployment (the
// paper's Fig. 1 comparisons) read the same graph and routing tree — from
// several threads at once, with results identical to serial runs.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/discipline_spec.h"
#include "crypto/payload.h"
#include "net/network.h"
#include "net/topology.h"
#include "workload/source.h"

namespace tempriv::net {
namespace {

struct RunResult {
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t drops = 0;
  std::vector<std::pair<std::uint64_t, sim::Time>> arrivals;  // (uid, time)

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

struct ArrivalTrace final : SinkObserver {
  std::vector<std::pair<std::uint64_t, sim::Time>>* out;
  explicit ArrivalTrace(std::vector<std::pair<std::uint64_t, sim::Time>>* o)
      : out(o) {}
  void on_delivery(const Packet& packet, sim::Time arrival) override {
    out->emplace_back(packet.uid, arrival);
  }
};

/// Heavy Poisson traffic from every fifth node of `field` under `spec`, so
/// small buffers overflow.
RunResult run_scheme(const Topology& field, const core::DisciplineSpec& spec) {
  sim::Simulator simulator;
  Network network(simulator, field, spec, {}, sim::RandomStream(17));
  const crypto::PayloadCodec codec(crypto::Speck64_128::Key{
      3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3});
  RunResult result;
  ArrivalTrace trace(&result.arrivals);
  network.add_sink_observer(&trace);
  std::vector<std::unique_ptr<workload::PoissonSource>> sources;
  sim::RandomStream source_root(29);
  for (NodeId origin = 1; origin < field.node_count(); origin += 5) {
    sources.push_back(std::make_unique<workload::PoissonSource>(
        network, codec, origin, source_root.split(origin), 0.5, 40));
    sources.back()->start(source_root.uniform(0.0, 2.0));
  }
  simulator.run();
  result.events = simulator.events_executed();
  result.delivered = network.packets_delivered();
  result.preemptions = network.total_preemptions();
  result.drops = network.total_drops();
  return result;
}

TEST(SharedField, ConcurrentSchemesOnOneFieldMatchSerialRuns) {
  const Topology field = Topology::grid(20, 20);
  const core::DisciplineSpec rcad = core::DisciplineSpec::rcad_exponential(30.0, 3);
  const core::DisciplineSpec droptail =
      core::DisciplineSpec::droptail_exponential(30.0, 3);

  const RunResult rcad_serial = run_scheme(field, rcad);
  const RunResult droptail_serial = run_scheme(field, droptail);
  // The buffers must actually overflow for the comparison to cover the
  // preemption and drop paths.
  ASSERT_GT(rcad_serial.preemptions, 0u);
  ASSERT_GT(droptail_serial.drops, 0u);
  ASSERT_FALSE(rcad_serial.arrivals.empty());

  RunResult rcad_threaded;
  RunResult droptail_threaded;
  std::thread a([&] { rcad_threaded = run_scheme(field, rcad); });
  std::thread b([&] { droptail_threaded = run_scheme(field, droptail); });
  a.join();
  b.join();

  EXPECT_EQ(rcad_threaded.events, rcad_serial.events);
  EXPECT_EQ(rcad_threaded.delivered, rcad_serial.delivered);
  EXPECT_EQ(rcad_threaded.preemptions, rcad_serial.preemptions);
  EXPECT_EQ(rcad_threaded.drops, rcad_serial.drops);
  EXPECT_TRUE(rcad_threaded.arrivals == rcad_serial.arrivals);
  EXPECT_EQ(droptail_threaded.events, droptail_serial.events);
  EXPECT_EQ(droptail_threaded.delivered, droptail_serial.delivered);
  EXPECT_EQ(droptail_threaded.preemptions, droptail_serial.preemptions);
  EXPECT_EQ(droptail_threaded.drops, droptail_serial.drops);
  EXPECT_TRUE(droptail_threaded.arrivals == droptail_serial.arrivals);
}

TEST(SharedField, NetworksReadTheCallersField) {
  // No copy of the graph or the routing tree: a Network built from a
  // Topology hands back the caller's CSR rows and tree arrays, and so does
  // a network built from a copy of the handle.
  const Topology topo = Topology::grid(6, 6);
  const RoutingTable routing(topo);
  sim::Simulator simulator;
  const Network net(simulator, topo, core::DisciplineSpec::immediate(), {},
                    sim::RandomStream(1));
  for (NodeId v : {NodeId{0}, NodeId{7}, NodeId{35}}) {
    EXPECT_EQ(net.topology().neighbors(v).data(), topo.neighbors(v).data());
  }
  EXPECT_EQ(net.topology().adjacency().data(), topo.adjacency().data());
  EXPECT_EQ(net.routing().next_hops().data(), routing.next_hops().data());

  const Topology copy = topo;  // NOLINT(performance-unnecessary-copy-initialization)
  const Network from_copy(simulator, copy, core::DisciplineSpec::immediate(),
                          {}, sim::RandomStream(1));
  EXPECT_EQ(from_copy.topology().neighbors(7).data(), topo.neighbors(7).data());
  EXPECT_EQ(from_copy.routing().next_hops().data(), routing.next_hops().data());
}

}  // namespace
}  // namespace tempriv::net
