#pragma once
// The Random Gate (RG) abstraction (section 2.2 of the paper).
//
// A RG is a probabilistic gate whose instances are library cells drawn with
// the design's frequency-of-use distribution (eq. (6)). Its leakage X_I is
// defined on the product of the gate-choice space and the process space;
// its statistics are the mixture moments of eqs (7)-(8), and the covariance
// between two RGs at distinct die locations is the usage-weighted mixture of
// pairwise gate covariances (eqs (9)-(11)).

#include "charlib/correlation_map.h"
#include "netlist/netlist.h"
#include "process/variation.h"

namespace rgleak::core {

using CorrelationMode = charlib::CorrelationMode;

/// Immutable Random Gate: leakage mean/variance and offset-dependent
/// covariance for a (library, usage, signal-probability) triple.
class RandomGate {
 public:
  RandomGate(const charlib::CharacterizedLibrary& chars, const netlist::UsageHistogram& usage,
             double signal_probability, CorrelationMode mode);

  /// mu_{X_I} (eq. (7)), nA.
  double mean_na() const { return moments_.mean; }
  /// sigma^2_{X_I} (eq. (8)), nA^2.
  double variance_na2() const { return moments_.variance; }
  double sigma_na() const;

  /// Leakage covariance of two RGs at an (dx, dy) site offset (eq. (11)):
  /// the variance at (0, 0), F(rho_total(dx, dy)) otherwise; respects the
  /// process's correlation anisotropy.
  double covariance_at_offset(double dx_nm, double dy_nm) const;

  /// The constant (D2D) part of the leakage covariance: the large-distance
  /// limit F(rho_floor), used by the polar estimator's split (eq. (26)).
  double covariance_floor_na2() const { return covariance_floor_; }

  const process::ProcessVariation& process() const { return process_; }

 private:
  RandomGate(const charlib::CharacterizedLibrary& chars,
             const std::vector<charlib::RgComponent>& components, CorrelationMode mode);

  process::ProcessVariation process_;
  charlib::MixtureMoments moments_;
  charlib::MixtureCovariance cov_;  // F(rho_L) of eq. (10)
  double covariance_floor_ = 0.0;
};

}  // namespace rgleak::core
