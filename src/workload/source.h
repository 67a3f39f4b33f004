#pragma once

#include <cstdint>

#include "crypto/payload.h"
#include "net/network.h"
#include "sim/random.h"

namespace tempriv::workload {

/// Base for traffic sources: owns the application sequence counter, seals
/// each reading (so its creation time-stamp and sequence number are
/// encrypted end-to-end) and injects it into the network. Subclasses decide
/// *when* packets are created.
class Source {
 public:
  /// `network` and `codec` are kept by reference and must outlive the run.
  Source(net::Network& network, const crypto::PayloadCodec& codec,
         net::NodeId origin, sim::RandomStream rng);

  virtual ~Source() = default;
  Source(const Source&) = delete;
  Source& operator=(const Source&) = delete;

  /// Schedules the first packet creation. Call once before running the
  /// simulator; `at` is an absolute simulation time.
  virtual void start(double at) = 0;

  std::uint32_t packets_created() const noexcept { return app_seq_; }

 protected:
  /// Creates one packet *now*: samples a reading, seals
  /// (reading, app_seq, now) and originates it. Returns the packet uid.
  std::uint64_t emit();

  net::Network& network() noexcept { return network_; }
  sim::RandomStream& rng() noexcept { return rng_; }

 private:
  net::Network& network_;
  const crypto::PayloadCodec& codec_;
  net::NodeId origin_;
  sim::RandomStream rng_;
  std::uint32_t app_seq_ = 0;
};

/// The paper's evaluation traffic (§5.2): packets created at fixed periodic
/// intervals of 1/λ time units, `count` packets total.
class PeriodicSource final : public Source {
 public:
  PeriodicSource(net::Network& network, const crypto::PayloadCodec& codec,
                 net::NodeId origin, sim::RandomStream rng, double interval,
                 std::uint32_t count);

  void start(double at) override;

 private:
  void tick();

  double interval_;
  std::uint32_t count_;
};

/// Poisson traffic (rate λ), matching the §3/§4 analytic model: i.i.d.
/// exponential inter-creation times.
class PoissonSource final : public Source {
 public:
  PoissonSource(net::Network& network, const crypto::PayloadCodec& codec,
                net::NodeId origin, sim::RandomStream rng, double rate,
                std::uint32_t count);

  void start(double at) override;

 private:
  void tick();

  double rate_;
  std::uint32_t count_;
};

}  // namespace tempriv::workload
