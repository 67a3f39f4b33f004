#include "workload/trace_source.h"

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>

#include "core/discipline_spec.h"

namespace tempriv::workload {
namespace {

struct Fixture {
  sim::Simulator sim;
  crypto::PayloadCodec codec{crypto::Speck64_128::Key{
      7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5, 9, 0, 4, 5, 2}};
  net::Network net{sim, net::Topology::line(4),
                   core::DisciplineSpec::immediate(),
                   {}, sim::RandomStream(13)};

  struct Recorder final : net::SinkObserver {
    std::vector<double> creations;
    const crypto::PayloadCodec& codec;
    explicit Recorder(const crypto::PayloadCodec& c) : codec(c) {}
    void on_delivery(const net::Packet& packet, sim::Time) override {
      creations.push_back(codec.open(packet.payload)->creation_time);
    }
  } recorder{codec};

  Fixture() { net.add_sink_observer(&recorder); }
};

TEST(TraceSource, ReplaysExactCreationTimes) {
  Fixture f;
  TraceSource source(f.net, f.codec, 0, sim::RandomStream(1),
                     {0.0, 1.5, 1.5, 7.25, 40.0});
  source.start(10.0);
  f.sim.run();
  ASSERT_EQ(f.recorder.creations.size(), 5u);
  EXPECT_DOUBLE_EQ(f.recorder.creations[0], 10.0);
  EXPECT_DOUBLE_EQ(f.recorder.creations[1], 11.5);
  EXPECT_DOUBLE_EQ(f.recorder.creations[2], 11.5);
  EXPECT_DOUBLE_EQ(f.recorder.creations[3], 17.25);
  EXPECT_DOUBLE_EQ(f.recorder.creations[4], 50.0);
  EXPECT_EQ(source.trace_length(), 5u);
}

TEST(TraceSource, RejectsUnsortedOrNegativeTraces) {
  Fixture f;
  EXPECT_THROW(
      TraceSource(f.net, f.codec, 0, sim::RandomStream(1), {2.0, 1.0}),
      std::invalid_argument);
  EXPECT_THROW(
      TraceSource(f.net, f.codec, 0, sim::RandomStream(1), {-1.0, 1.0}),
      std::invalid_argument);
}

TEST(TraceSource, EmptyTraceIsAllowed) {
  Fixture f;
  TraceSource source(f.net, f.codec, 0, sim::RandomStream(1), {});
  source.start(0.0);
  f.sim.run();
  EXPECT_TRUE(f.recorder.creations.empty());
}

TEST(LoadTraceCsv, ParsesHeaderCommentsAndValues) {
  const std::string path = ::testing::TempDir() + "/tempriv_trace.csv";
  {
    std::ofstream out(path);
    out << "time\n# a comment\n0.5\n\n  2.25\n10 # trailing comment\n";
  }
  const auto times = load_trace_csv(path);
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 0.5);
  EXPECT_DOUBLE_EQ(times[1], 2.25);
  EXPECT_DOUBLE_EQ(times[2], 10.0);
}

TEST(LoadTraceCsv, ErrorsAreSpecific) {
  EXPECT_THROW(load_trace_csv("/nonexistent/trace.csv"), std::runtime_error);
  const std::string path = ::testing::TempDir() + "/tempriv_trace_bad.csv";
  {
    std::ofstream out(path);
    out << "0.5\nnot-a-number\n";
  }
  EXPECT_THROW(load_trace_csv(path), std::invalid_argument);
}

TEST(TraceSource, RoundTripsThroughCsv) {
  const std::string path = ::testing::TempDir() + "/tempriv_trace_rt.csv";
  {
    std::ofstream out(path);
    out << "1.0\n2.0\n4.0\n";
  }
  Fixture f;
  TraceSource source(f.net, f.codec, 0, sim::RandomStream(1),
                     load_trace_csv(path));
  source.start(0.0);
  f.sim.run();
  EXPECT_EQ(f.recorder.creations.size(), 3u);
}

}  // namespace
}  // namespace tempriv::workload
