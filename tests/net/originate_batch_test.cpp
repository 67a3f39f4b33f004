// Network::originate_batch and Source::emit_burst: a batch-sealed burst must
// be indistinguishable — uids, headers, sealed bytes, delivery times, RNG
// draws — from the same packets injected one originate()/emit() at a time.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/discipline_spec.h"
#include "crypto/payload.h"
#include "net/network.h"
#include "workload/source.h"

namespace tempriv::net {
namespace {

crypto::PayloadCodec& test_codec() {
  static crypto::PayloadCodec codec(crypto::Speck64_128::Key{
      1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  return codec;
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

std::vector<crypto::SensorPayload> burst_payloads(std::size_t n) {
  std::vector<crypto::SensorPayload> payloads(n);
  for (std::size_t i = 0; i < n; ++i) {
    payloads[i] = {15.0 + static_cast<double>(i),
                   static_cast<std::uint32_t>(i), 0.0};
  }
  return payloads;
}

// Sizes straddling the lane-group width: scalar remainder only, exactly one
// group, group + remainder.
TEST(OriginateBatch, MatchesRepeatedOriginateExactly) {
  for (std::size_t n : {std::size_t{3}, std::size_t{8}, std::size_t{13}}) {
    const auto payloads = burst_payloads(n);

    sim::Simulator sim_a;
    Network one(sim_a, Topology::line(4), core::DisciplineSpec::immediate(),
                {.hop_tx_delay = 1.0}, sim::RandomStream(1));
    RecordingObserver obs_a;
    one.add_sink_observer(&obs_a);
    for (const auto& p : payloads) {
      one.originate(0, test_codec().seal(p, 0));
    }
    sim_a.run();

    sim::Simulator sim_b;
    Network batched(sim_b, Topology::line(4), core::DisciplineSpec::immediate(),
                    {.hop_tx_delay = 1.0}, sim::RandomStream(1));
    RecordingObserver obs_b;
    batched.add_sink_observer(&obs_b);
    EXPECT_EQ(batched.originate_batch(0, test_codec(), payloads), 0u);
    sim_b.run();

    ASSERT_EQ(obs_a.deliveries.size(), n) << "n " << n;
    ASSERT_EQ(obs_b.deliveries.size(), n) << "n " << n;
    EXPECT_EQ(batched.packets_originated(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const Packet& a = obs_a.deliveries[i].packet;
      const Packet& b = obs_b.deliveries[i].packet;
      EXPECT_EQ(a.uid, b.uid) << "n " << n << " i " << i;
      EXPECT_EQ(a.header.origin, b.header.origin);
      EXPECT_EQ(a.header.hop_count, b.header.hop_count);
      EXPECT_EQ(a.payload.nonce, b.payload.nonce);
      EXPECT_EQ(a.payload.ciphertext, b.payload.ciphertext);
      EXPECT_EQ(a.payload.tag, b.payload.tag);
      EXPECT_DOUBLE_EQ(obs_a.deliveries[i].arrival, obs_b.deliveries[i].arrival);
      const auto opened = test_codec().open(b.payload);
      ASSERT_TRUE(opened.has_value());
      EXPECT_EQ(opened->app_seq, static_cast<std::uint32_t>(i));
    }
  }
}

TEST(OriginateBatch, EmptyBurstIsANoOp) {
  sim::Simulator sim;
  Network net(sim, Topology::line(3), core::DisciplineSpec::immediate(),
              {.hop_tx_delay = 1.0}, sim::RandomStream(1));
  EXPECT_EQ(net.originate_batch(0, test_codec(), {}), 0u);
  EXPECT_EQ(net.packets_originated(), 0u);
  EXPECT_EQ(net.originate(0, test_codec().seal({1.0, 0, 0.0}, 0)), 0u);
}

TEST(OriginateBatch, RejectsBadOrigin) {
  sim::Simulator sim;
  Network net(sim, Topology::line(3), core::DisciplineSpec::immediate(),
              {.hop_tx_delay = 1.0}, sim::RandomStream(1));
  const auto payloads = burst_payloads(2);
  EXPECT_THROW(net.originate_batch(net.topology().sink(), test_codec(),
                                   payloads),
               std::invalid_argument);
  EXPECT_THROW(net.originate_batch(99, test_codec(), payloads),
               std::invalid_argument);
  EXPECT_EQ(net.packets_originated(), 0u);
}

// A minimal Source subclass to drive the protected emit()/emit_burst().
class BurstingProbe final : public workload::Source {
 public:
  using Source::Source;
  void start(double) override {}
  std::uint64_t burst(std::uint32_t n) { return emit_burst(n); }
  std::uint64_t one() { return emit(); }
};

TEST(EmitBurst, MatchesRepeatedEmitIncludingRngDraws) {
  const std::uint32_t n = 13;

  sim::Simulator sim_a;
  Network net_a(sim_a, Topology::line(4), core::DisciplineSpec::immediate(),
                {.hop_tx_delay = 1.0}, sim::RandomStream(1));
  RecordingObserver obs_a;
  net_a.add_sink_observer(&obs_a);
  BurstingProbe single(net_a, test_codec(), 0, sim::RandomStream(77));
  for (std::uint32_t i = 0; i < n; ++i) single.one();
  sim_a.run();

  sim::Simulator sim_b;
  Network net_b(sim_b, Topology::line(4), core::DisciplineSpec::immediate(),
                {.hop_tx_delay = 1.0}, sim::RandomStream(1));
  RecordingObserver obs_b;
  net_b.add_sink_observer(&obs_b);
  BurstingProbe bursty(net_b, test_codec(), 0, sim::RandomStream(77));
  EXPECT_EQ(bursty.burst(n), 0u);
  EXPECT_EQ(bursty.packets_created(), n);
  sim_b.run();

  ASSERT_EQ(obs_a.deliveries.size(), n);
  ASSERT_EQ(obs_b.deliveries.size(), n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Packet& a = obs_a.deliveries[i].packet;
    const Packet& b = obs_b.deliveries[i].packet;
    EXPECT_EQ(a.payload.nonce, b.payload.nonce) << "i " << i;
    EXPECT_EQ(a.payload.ciphertext, b.payload.ciphertext) << "i " << i;
    EXPECT_EQ(a.payload.tag, b.payload.tag) << "i " << i;
  }
}

}  // namespace
}  // namespace tempriv::net
