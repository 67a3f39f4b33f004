#pragma once

#include <set>
#include <unordered_set>
#include <vector>

#include "adversary/estimator.h"
#include "net/network.h"

namespace tempriv::adversary {

/// An eavesdropper placed *inside* the network instead of at the sink —
/// the alternative §2.1 considers and dismisses: "while it may seem like
/// the adversary would be better off being mobile or located at several
/// random places within the network, it is not so. Since all activities in
/// a sensor network are reported to the sink, being closer to the sink
/// enables the adversary to maximize his chances of observing as many
/// traffic flows as possible."
///
/// This class lets that claim be measured (InNetworkEavesdropper tests):
/// the eavesdropper overhears every transmission *originating from* the
/// nodes in its radio range and estimates each overheard packet's creation
/// time from the hop count in the cleartext header:
///
///   x̂ = t_heard − (h−1)·τ − h·(1/µ)
///
/// (h transmissions so far, so h−1 completed link traversals and h nodes —
/// including the origin — that each held the packet once). An in-network
/// position inverts *fewer* accumulated delays, so its per-packet error on
/// the flows it covers is smaller than the sink adversary's — but it hears
/// only the flows routed through its range, which is the trade-off the
/// paper's argument rests on.
class InNetworkEavesdropper {
 public:
  struct Config {
    double hop_tx_delay = 1.0;
    double mean_delay_per_hop = 30.0;  ///< 1/µ (0 for a no-delay network)
  };

  /// Attaches to `network` (transmit probe) and overhears transmissions
  /// sent by any node in `radio_range`. Must outlive the run.
  InNetworkEavesdropper(const Config& config, net::Network& network,
                        std::set<net::NodeId> radio_range);

  /// One estimate per overheard packet (first overhearing wins: the
  /// eavesdropper estimates as soon as it can).
  const std::vector<Estimate>& estimates() const noexcept { return estimates_; }

  /// Distinct flows (origin ids) overheard.
  std::size_t flows_heard() const noexcept { return flows_.size(); }

  /// Distinct packets overheard.
  std::size_t packets_heard() const noexcept { return estimates_.size(); }

 private:
  void overhear(const net::Packet& packet, double now);

  Config config_;
  std::set<net::NodeId> radio_range_;
  std::vector<Estimate> estimates_;
  std::unordered_set<std::uint64_t> seen_;
  std::set<net::NodeId> flows_;
};

}  // namespace tempriv::adversary
