#pragma once

#include <cstdint>

#include "workload/source.h"

namespace tempriv::workload {

/// ON/OFF bursty source (two-state Markov-modulated Poisson process).
///
/// Real sensed phenomena are bursty — an animal lingers near one sensor,
/// a vehicle convoy passes a checkpoint — which is *harder* for delaying
/// schemes than smooth traffic: bursts slam the buffers (forcing RCAD into
/// its preemption regime) and then go quiet (letting buffers drain with
/// full-length delays). The source alternates exponentially-distributed
/// ON periods, during which packets are created as a Poisson process with
/// `burst_rate`, and OFF periods with no traffic at all.
class BurstSource final : public Source {
 public:
  struct Config {
    double burst_rate = 1.0;      ///< packet rate while ON
    double mean_on_time = 20.0;   ///< exponential mean of ON periods
    double mean_off_time = 80.0;  ///< exponential mean of OFF periods
    std::uint32_t count = 1000;   ///< total packets to create
  };

  BurstSource(net::Network& network, const crypto::PayloadCodec& codec,
              net::NodeId origin, sim::RandomStream rng, const Config& config);

  void start(double at) override;

 private:
  void begin_burst();
  void tick(double burst_ends);

  Config config_;
};

}  // namespace tempriv::workload
