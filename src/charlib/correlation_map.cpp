#include "charlib/correlation_map.h"

#include <cmath>

#include "math/gaussian_moments.h"
#include "util/require.h"

namespace rgleak::charlib {

double pair_product_expectation(const math::LogQuadraticModel& m1,
                                const math::LogQuadraticModel& m2, double mu_l, double sigma_l,
                                double rho_l) {
  RGLEAK_REQUIRE(m1.a > 0.0 && m2.a > 0.0, "models need positive scale");
  return m1.a * m2.a *
         math::expectation_exp_quadratic_2d(m1.b, m1.c, m2.b, m2.c, mu_l,
                                            sigma_l * sigma_l, rho_l);
}

double pair_leakage_covariance(const math::LogQuadraticModel& m1,
                               const math::LogQuadraticModel& m2, double mu_l, double sigma_l,
                               double rho_l) {
  const math::LogQuadraticMoments mo1(m1, mu_l, sigma_l);
  const math::LogQuadraticMoments mo2(m2, mu_l, sigma_l);
  return pair_product_expectation(m1, m2, mu_l, sigma_l, rho_l) - mo1.mean() * mo2.mean();
}

double pair_leakage_correlation(const math::LogQuadraticModel& m1,
                                const math::LogQuadraticModel& m2, double mu_l, double sigma_l,
                                double rho_l) {
  const math::LogQuadraticMoments mo1(m1, mu_l, sigma_l);
  const math::LogQuadraticMoments mo2(m2, mu_l, sigma_l);
  RGLEAK_REQUIRE(mo1.stddev() > 0.0 && mo2.stddev() > 0.0,
                 "correlation needs non-degenerate leakage");
  return pair_leakage_covariance(m1, m2, mu_l, sigma_l, rho_l) / (mo1.stddev() * mo2.stddev());
}

std::vector<RgComponent> make_rg_components(const CharacterizedLibrary& chars,
                                            const std::vector<double>& usage_alphas,
                                            double signal_probability) {
  RGLEAK_REQUIRE(usage_alphas.size() == chars.size(),
                 "usage distribution must have one entry per library cell");
  double total = 0.0;
  for (double a : usage_alphas) {
    RGLEAK_REQUIRE(a >= 0.0, "usage frequencies must be non-negative");
    total += a;
  }
  RGLEAK_REQUIRE(std::abs(total - 1.0) < 1e-6, "usage frequencies must sum to 1");

  std::vector<RgComponent> components;
  for (std::size_t ci = 0; ci < chars.size(); ++ci) {
    if (usage_alphas[ci] == 0.0) continue;
    const std::vector<double> sp = chars.state_probabilities(ci, signal_probability);
    const CellChar& cc = chars.cell(ci);
    for (std::size_t s = 0; s < cc.states.size(); ++s) {
      const double w = usage_alphas[ci] * sp[s];
      if (w == 0.0) continue;
      RgComponent comp;
      comp.weight = w;
      comp.mean_na = cc.states[s].mean_na;
      comp.sigma_na = cc.states[s].sigma_na;
      comp.model = cc.states[s].model;
      components.push_back(comp);
    }
  }
  RGLEAK_REQUIRE(!components.empty(), "RG mixture has no components");
  return components;
}

void require_mode_supported(const CharacterizedLibrary& chars, CorrelationMode mode) {
  RGLEAK_REQUIRE(mode != CorrelationMode::kAnalytic || chars.has_models(),
                 "analytic correlation mode needs an analytically characterized library");
}

MixtureMoments mixture_moments(const std::vector<RgComponent>& components) {
  double m = 0.0, second = 0.0;
  for (const auto& c : components) {
    m += c.weight * c.mean_na;
    second += c.weight * (c.sigma_na * c.sigma_na + c.mean_na * c.mean_na);
  }
  return {m, second - m * m};
}

double weighted_sigma(const std::vector<RgComponent>& components) {
  double s = 0.0;
  for (const auto& c : components) s += c.weight * c.sigma_na;
  return s;
}

MixtureCovariance::MixtureCovariance(const std::vector<RgComponent>& a,
                                     const std::vector<RgComponent>& b, CorrelationMode mode,
                                     double mu_l, double sigma_l, std::size_t grid_points) {
  RGLEAK_REQUIRE(!a.empty() && !b.empty(), "mixture covariance needs non-empty mixtures");
  if (mode == CorrelationMode::kSimplified) {
    scale_ = weighted_sigma(a) * weighted_sigma(b);
    return;
  }
  RGLEAK_REQUIRE(grid_points >= 2, "rho grid needs at least two points");
  for (const auto* list : {&a, &b})
    for (const auto& c : *list)
      RGLEAK_REQUIRE(c.model.has_value(),
                     "analytic mixture covariance needs fitted models for every component");
  // The auto-covariance is symmetric in (k, l): fold to k <= l.
  const bool symmetric = &a == &b;
  const double var_l = sigma_l * sigma_l;
  grid_.resize(grid_points);
  for (std::size_t i = 0; i < grid_points; ++i) {
    const double rho = static_cast<double>(i) / static_cast<double>(grid_points - 1);
    double f = 0.0;
    for (std::size_t k = 0; k < a.size(); ++k) {
      const RgComponent& ca = a[k];
      for (std::size_t l = symmetric ? k : 0; l < b.size(); ++l) {
        const RgComponent& cb = b[l];
        const double e12 =
            ca.model->a * cb.model->a *
            math::expectation_exp_quadratic_2d(ca.model->b, ca.model->c, cb.model->b,
                                               cb.model->c, mu_l, var_l, rho);
        const double fold = symmetric && k != l ? 2.0 : 1.0;
        f += fold * ca.weight * cb.weight * (e12 - ca.mean_na * cb.mean_na);
      }
    }
    grid_[i] = f;
  }
}

}  // namespace rgleak::charlib
