#include "core/random_gate.h"

#include <cmath>

namespace rgleak::core {

namespace {

std::vector<charlib::RgComponent> rg_components(const charlib::CharacterizedLibrary& chars,
                                                const netlist::UsageHistogram& usage,
                                                double signal_probability,
                                                CorrelationMode mode) {
  usage.validate();
  charlib::require_mode_supported(chars, mode);
  return charlib::make_rg_components(chars, usage.alphas, signal_probability);
}

}  // namespace

RandomGate::RandomGate(const charlib::CharacterizedLibrary& chars,
                       const netlist::UsageHistogram& usage, double signal_probability,
                       CorrelationMode mode)
    : RandomGate(chars, rg_components(chars, usage, signal_probability, mode), mode) {}

RandomGate::RandomGate(const charlib::CharacterizedLibrary& chars,
                       const std::vector<charlib::RgComponent>& components,
                       CorrelationMode mode)
    : process_(chars.process()),
      moments_(charlib::mixture_moments(components)),
      cov_(components, components, mode, process_.length().mean_nm,
           process_.length().sigma_total_nm(), /*grid_points=*/65),
      covariance_floor_(cov_.covariance(process_.length().d2d_variance_fraction())) {}

double RandomGate::sigma_na() const {
  const double v = variance_na2();
  return v > 0.0 ? std::sqrt(v) : 0.0;
}

double RandomGate::covariance_at_offset(double dx_nm, double dy_nm) const {
  if (dx_nm == 0.0 && dy_nm == 0.0) return variance_na2();
  return cov_.covariance(process_.total_length_correlation_xy(dx_nm, dy_nm));
}

}  // namespace rgleak::core
