#pragma once

#include <functional>
#include <map>
#include <vector>

#include "adversary/estimator.h"
#include "net/network.h"

namespace tempriv::adversary {

/// What goes wrong if the application sequence number is NOT encrypted.
///
/// The paper's network model (§2) deliberately places the sequence number
/// inside the encrypted payload, and §3.2 builds on it: the adversary only
/// sees the *sorted* arrival process. This adversary quantifies that design
/// decision by simulating the broken deployment where the header leaks the
/// per-flow sequence number j.
///
/// Against a periodic source (creation x_j = φ + j·T) the leak is fatal:
///   * regress z on j (online least squares) — the slope estimates the
///     period T̂ essentially exactly once a few packets arrived;
///   * the OLS intercept estimates φ + E[total delay]; subtracting the
///     known expectation h·(τ + 1/µ) anchors the phase;
///   * estimate x̂_j = φ̂ + j·T̂.
///
/// Averaging removes the *per-packet* randomness entirely: the residual
/// error is a single common offset (how far the realized mean delay sits
/// from its expectation — e.g. RCAD's preemption bias), identical for
/// every packet. The creation *pattern* — relative event times, the thing
/// asset tracking needs — is recovered almost perfectly, which is why the
/// bias-centered MSE collapses (12–43× under RCAD on the Figure-1 tree)
/// relative to any adversary working without sequence numbers. Pinned by
/// SequenceLeakAdversary.DefeatsDelayingOnPeriodicTraffic.
class SequenceLeakAdversary final : public net::SinkObserver {
 public:
  /// `leak` simulates the cleartext field: given a delivered packet it
  /// returns the application sequence number the broken header would have
  /// carried (the bench implements it by decrypting with the network key —
  /// the adversary itself never holds the key, it just reads the "header").
  using SequenceLeak = std::function<std::uint32_t(const net::Packet&)>;

  /// `hop_tx_delay` is the known per-hop τ; `mean_delay_per_hop` the known
  /// configured 1/µ (Kerckhoff) used to anchor the recovered phase.
  SequenceLeakAdversary(double hop_tx_delay, double mean_delay_per_hop,
                        SequenceLeak leak);

  void on_delivery(const net::Packet& packet, sim::Time arrival) override;

  const std::vector<Estimate>& estimates() const noexcept { return estimates_; }

  /// Current period estimate for a flow (0 before two packets).
  double period_estimate(net::NodeId flow) const;

 private:
  struct FlowFit {
    // Online least-squares accumulators of z against j.
    double n = 0.0;
    double sum_j = 0.0;
    double sum_z = 0.0;
    double sum_jz = 0.0;
    double sum_jj = 0.0;

    double slope() const noexcept {
      const double var = n * sum_jj - sum_j * sum_j;
      if (var <= 0.0) return 0.0;
      return (n * sum_jz - sum_j * sum_z) / var;
    }

    double intercept() const noexcept {
      return (sum_z - slope() * sum_j) / n;
    }
  };

  double hop_tx_delay_;
  double mean_delay_per_hop_;
  SequenceLeak leak_;
  std::map<net::NodeId, FlowFit> fits_;
  std::vector<Estimate> estimates_;
};

}  // namespace tempriv::adversary
