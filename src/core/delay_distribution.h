#pragma once

#include <memory>
#include <string>

#include "sim/random.h"

namespace tempriv::core {

/// A privacy-delay distribution f_Y (paper §3): each node draws an
/// independent delay Y from it for every packet it handles. The paper
/// argues for the exponential (maximum entropy over non-negative supports
/// with fixed mean); the alternatives here exist so the choice can be
/// evaluated empirically (DelayDistributionLeakage tests).
class DelayDistribution {
 public:
  virtual ~DelayDistribution() = default;

  /// Draws one delay (>= 0).
  virtual double sample(sim::RandomStream& rng) const = 0;

  /// E[Y]; used by adversaries (who know the scheme, per Kerckhoff) and by
  /// the queueing dimensioning (µ = 1/mean).
  virtual double mean() const noexcept = 0;

  /// Differential entropy h(Y) in nats (−inf for deterministic delays),
  /// feeding the Eq. (1)/(2) leakage computations.
  virtual double differential_entropy() const noexcept = 0;

  virtual std::string name() const = 0;

  /// Deep copy (distributions are small immutable value-likes).
  virtual std::unique_ptr<DelayDistribution> clone() const = 0;
};

/// Y = 0: forward immediately (the paper's baseline case 1).
class NoDelay final : public DelayDistribution {
 public:
  double sample(sim::RandomStream&) const override { return 0.0; }
  double mean() const noexcept override { return 0.0; }
  double differential_entropy() const noexcept override;
  std::string name() const override { return "none"; }
  std::unique_ptr<DelayDistribution> clone() const override {
    return std::make_unique<NoDelay>(*this);
  }
};

/// Deterministic delay Y = d. Adds latency but zero entropy — provably
/// useless for privacy (the adversary subtracts it exactly).
class ConstantDelay final : public DelayDistribution {
 public:
  explicit ConstantDelay(double delay);
  double sample(sim::RandomStream&) const override { return delay_; }
  double mean() const noexcept override { return delay_; }
  double differential_entropy() const noexcept override;
  std::string name() const override;
  std::unique_ptr<DelayDistribution> clone() const override {
    return std::make_unique<ConstantDelay>(*this);
  }

 private:
  double delay_;
};

/// Y ~ U[lo, hi].
class UniformDelay final : public DelayDistribution {
 public:
  UniformDelay(double lo, double hi);
  double sample(sim::RandomStream& rng) const override;
  double mean() const noexcept override { return 0.5 * (lo_ + hi_); }
  double differential_entropy() const noexcept override;
  std::string name() const override;
  std::unique_ptr<DelayDistribution> clone() const override {
    return std::make_unique<UniformDelay>(*this);
  }

 private:
  double lo_;
  double hi_;
};

/// Y ~ Exp(mean) — the paper's choice (max-entropy, and the M/M/∞ / RCAD
/// analysis of §4–§5 assumes it).
class ExponentialDelay final : public DelayDistribution {
 public:
  explicit ExponentialDelay(double mean);
  double sample(sim::RandomStream& rng) const override;
  double mean() const noexcept override { return mean_; }
  double differential_entropy() const noexcept override;
  std::string name() const override;
  std::unique_ptr<DelayDistribution> clone() const override {
    return std::make_unique<ExponentialDelay>(*this);
  }

 private:
  double mean_;
};

/// Y ~ Pareto(xm, α), a heavy-tailed alternative (finite mean needs α > 1).
class ParetoDelay final : public DelayDistribution {
 public:
  ParetoDelay(double xm, double alpha);
  double sample(sim::RandomStream& rng) const override;
  double mean() const noexcept override;
  double differential_entropy() const noexcept override;
  std::string name() const override;
  std::unique_ptr<DelayDistribution> clone() const override {
    return std::make_unique<ParetoDelay>(*this);
  }

 private:
  double xm_;
  double alpha_;
};

}  // namespace tempriv::core
