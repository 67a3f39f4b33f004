#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "net/network.h"
#include "net/packet.h"
#include "queueing/erlang.h"

namespace tempriv::adversary {

/// One creation-time inference made by an eavesdropper for one delivered
/// packet. `uid` is attached purely so the *evaluation harness* can join
/// the estimate with ground truth; the estimate itself is computed only
/// from (arrival time, cleartext header), never from uid or payload.
struct Estimate {
  std::uint64_t uid = 0;
  net::NodeId flow = net::kInvalidNode;  ///< origin id from the header
  double arrival = 0.0;                  ///< observed z
  double estimated_creation = 0.0;       ///< inferred x̂
};

/// Common base for the paper's adversaries (§2.1, §5.4): sits at the sink,
/// observes every delivery, and emits one creation-time estimate per packet.
/// Deployment-aware per Kerckhoff: subclasses are constructed with full
/// knowledge of τ, the delay distributions and buffer sizes in use — but
/// they can never read the encrypted payload.
class Adversary : public net::SinkObserver {
 public:
  void on_delivery(const net::Packet& packet, sim::Time arrival) final;

  const std::vector<Estimate>& estimates() const noexcept { return estimates_; }

  /// Estimates restricted to one flow (origin id), in arrival order. Served
  /// from a per-flow index maintained on delivery, so the figure-scoring
  /// loops that query every flow after a run pay O(1) per query instead of
  /// one scan over every estimate the adversary ever made.
  const std::vector<Estimate>& estimates_for_flow(net::NodeId flow) const;

 protected:
  /// Per-flow observation state every adversary gets for free: the paper's
  /// adaptive adversary estimates flow rates "depending on the observed
  /// rate of incoming traffic at the sink" (§5.4).
  struct FlowObservation {
    std::uint64_t packets = 0;
    double first_arrival = 0.0;
    double last_arrival = 0.0;
    std::uint16_t hop_count = 0;  ///< from the cleartext header

    static constexpr std::size_t kRateWindow = 64;

    /// Recent arrival times (bounded by kRateWindow) for the windowed
    /// rate estimate; startup and drain transients age out of it. Stored
    /// in a fixed ring so the per-delivery update never allocates — the
    /// adaptive adversary runs this on every delivered packet.
    std::array<double, kRateWindow> recent_arrivals{};
    std::size_t recent_head = 0;   ///< index of the oldest arrival
    std::size_t recent_count = 0;  ///< arrivals currently in the window

    void push_arrival(double arrival) noexcept {
      if (recent_count < kRateWindow) {
        recent_arrivals[(recent_head + recent_count) % kRateWindow] = arrival;
        ++recent_count;
      } else {
        recent_arrivals[recent_head] = arrival;
        recent_head = (recent_head + 1) % kRateWindow;
      }
    }

    /// Arrival-rate estimate over the whole observation: (m−1)/(z_m − z_1);
    /// 0 until two packets have been seen.
    double rate_estimate_cumulative() const noexcept {
      if (packets < 2 || last_arrival <= first_arrival) return 0.0;
      return static_cast<double>(packets - 1) / (last_arrival - first_arrival);
    }

    /// Arrival-rate estimate over the most recent kRateWindow arrivals —
    /// tracks the *current* traffic level the way the paper's adversary
    /// "adapts his estimation of the delays depending on the observed rate
    /// of incoming traffic at the sink".
    double rate_estimate() const noexcept {
      if (recent_count < 2) return rate_estimate_cumulative();
      const double newest =
          recent_arrivals[(recent_head + recent_count - 1) % kRateWindow];
      const double span = newest - recent_arrivals[recent_head];
      if (span <= 0.0) return rate_estimate_cumulative();
      return static_cast<double>(recent_count - 1) / span;
    }
  };

  /// Subclass hook: turn one observation into a creation-time estimate.
  /// `obs` already includes the current packet.
  virtual double estimate_creation(const net::RoutingHeader& header,
                                   double arrival,
                                   const FlowObservation& obs) = 0;

  /// Everything tracked per flow, in one map node: the observation state
  /// and the flow-restricted estimate copies (duplicated from estimates_,
  /// not indexed by position, so neither container invalidates the other
  /// as they grow). One tree lookup per delivery serves both.
  struct FlowState {
    FlowObservation obs;
    std::vector<Estimate> estimates;
  };

  /// Sum of per-flow rate estimates — λ̂tot for the Erlang-loss test.
  double total_rate_estimate() const noexcept;

 private:
  std::vector<Estimate> estimates_;
  std::map<net::NodeId, FlowState> flows_;
};

/// Baseline adversary (§2.1 extended in §5.1): knows the hop count h from
/// the header, the per-hop transmission delay τ, and the *configured* mean
/// privacy delay per hop 1/µ; estimates x̂ = z − h·τ − h/µ. It neglects
/// preemption, which is exactly why RCAD defeats it at high traffic rates.
class BaselineAdversary final : public Adversary {
 public:
  /// `mean_delay_per_hop` is 1/µ (0 for a network with no privacy delays).
  BaselineAdversary(double hop_tx_delay, double mean_delay_per_hop);

 protected:
  double estimate_creation(const net::RoutingHeader& header, double arrival,
                           const FlowObservation& obs) override;

 private:
  double hop_tx_delay_;
  double mean_delay_per_hop_;
};

/// Adaptive adversary (§5.4): additionally knows the per-node buffer size k
/// and adapts to RCAD's preemption. At each arrival it estimates λ̂tot from
/// observed traffic, computes the Erlang-loss preemption probability
/// E(λ̂tot/µ, k), and if that exceeds `loss_threshold` (paper: 0.1) switches
/// its per-hop delay estimate for flow i from 1/µ to k/λ̂ᵢ; otherwise it
/// behaves like the baseline.
class AdaptiveAdversary final : public Adversary {
 public:
  struct Config {
    double hop_tx_delay = 1.0;
    double mean_delay_per_hop = 30.0;  ///< 1/µ of the deployed scheme
    std::size_t buffer_slots = 10;     ///< k of the deployed scheme
    double loss_threshold = 0.1;       ///< switch-over preemption probability
    /// Which observed rate drives the Erlang-loss regime test. The paper's
    /// text mentions the aggregate λtot of the flows converging before the
    /// sink, but its delay rule hᵢk/λᵢ is per flow; testing with λtot while
    /// estimating with λᵢ makes the adversary *overestimate* delays badly on
    /// the mostly-unshared branches (most of each path carries only its own
    /// flow). The per-flow test (default) is the self-consistent reading and
    /// reproduces Figure 3's shape; set true to get the literal-λtot variant.
    bool aggregate_rate_test = false;
    /// Clamp the preemption-regime delay estimate k/λ̂ at 1/µ. Preemption
    /// can only ever shorten holding times, so a mean-delay estimate above
    /// 1/µ is irrational; the clamp removes overshoot when the Erlang test
    /// fires right at the regime boundary (where k/λ̂ ≳ 1/µ). The paper's
    /// rule is unclamped; disable to get the literal behavior.
    bool clamp_to_no_preemption_mean = true;
  };

  explicit AdaptiveAdversary(const Config& config);

  /// True when the most recent estimate used the high-traffic (k/λ̂) rule.
  bool in_preemption_regime() const noexcept { return preemption_regime_; }

 protected:
  double estimate_creation(const net::RoutingHeader& header, double arrival,
                           const FlowObservation& obs) override;

 private:
  Config config_;
  /// Certified form of `erlang_loss(rho, k) > loss_threshold`: this runs
  /// once per delivered packet, and the predicate answers with a single
  /// comparison instead of k serial divides (bit-identical decisions).
  queueing::ErlangLossThreshold erlang_test_;
  bool preemption_regime_ = false;
};

}  // namespace tempriv::adversary
