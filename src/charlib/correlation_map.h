#pragma once
// Leakage-correlation machinery (sections 2.1.3 and 2.2.3 of the paper).
//
// Given two cells with fitted models X_m = a_m exp(b_m L + c_m L^2) and
// jointly normal lengths with correlation rho_L, the product moment
// E[X_m X_n] has the closed form of the bivariate Gaussian
// exponential-quadratic expectation, which yields the exact mapping
//   rho_{m,n} = f_{m,n}(rho_L)
// from channel-length correlation to leakage correlation (Fig. 2: f is close
// to the identity).
//
// The Random-Gate covariance of eq. (10) is the usage-weighted mixture of the
// pairwise covariances over all (cell, state) components:
//   F(rho) = sum_k sum_l w_k w_l Cov(X_k, X_l; rho).
// MixtureCovariance is its one implementation, for any two mixtures A and B:
// the RG auto-covariance (A = B), the cross-block covariance of the
// multi-block estimator, the per-type-pair covariance of the exact "true
// leakage" of eqs (14)/(15), and the per-(cell, state) covariance of the
// connectivity-aware estimator.

#include <algorithm>
#include <optional>
#include <vector>

#include "charlib/characterize.h"
#include "math/mgf.h"
#include "util/require.h"

namespace rgleak::charlib {

/// E[X1 X2] for two log-quadratic models with lengths (L1, L2) jointly normal:
/// common mean mu_l, common sigma sigma_l, correlation rho_l.
double pair_product_expectation(const math::LogQuadraticModel& m1,
                                const math::LogQuadraticModel& m2, double mu_l, double sigma_l,
                                double rho_l);

/// Cov(X1, X2) for the same setting.
double pair_leakage_covariance(const math::LogQuadraticModel& m1,
                               const math::LogQuadraticModel& m2, double mu_l, double sigma_l,
                               double rho_l);

/// The f_{m,n} mapping: leakage correlation as a function of length
/// correlation.
double pair_leakage_correlation(const math::LogQuadraticModel& m1,
                                const math::LogQuadraticModel& m2, double mu_l, double sigma_l,
                                double rho_l);

/// One component of the Random-Gate mixture: a (cell, state) pair with its
/// usage-times-state probability weight.
struct RgComponent {
  double weight = 0.0;
  double mean_na = 0.0;
  double sigma_na = 0.0;
  std::optional<math::LogQuadraticModel> model;
};

/// Flattens a characterized library + usage distribution + signal probability
/// into the RG component mixture. Weights sum to 1.
std::vector<RgComponent> make_rg_components(const CharacterizedLibrary& chars,
                                            const std::vector<double>& usage_alphas,
                                            double signal_probability);

/// Which leakage-correlation mapping backs a mixture covariance.
enum class CorrelationMode {
  kAnalytic,    ///< exact f_{m,n} from the fitted (a,b,c) triplets
  kSimplified,  ///< rho_{m,n} = rho_L (section 3.1.2; required for MC-characterized libraries)
};

/// Throws ContractViolation when `mode` is analytic and `chars` carries no
/// fitted models.
void require_mode_supported(const CharacterizedLibrary& chars, CorrelationMode mode);

/// Mixture mean and variance of a component list (eqs (7)-(8)).
struct MixtureMoments {
  double mean = 0.0;
  double variance = 0.0;
};
MixtureMoments mixture_moments(const std::vector<RgComponent>& components);

/// sum_k w_k sigma_k: a mixture's factor in the simplified covariance.
double weighted_sigma(const std::vector<RgComponent>& components);

/// The leakage covariance of two mixtures A and B as a function of length
/// correlation: F_AB(rho_L) = sum_{k in A} sum_{l in B} w_k w_l Cov(X_k, X_l;
/// rho_L), for distinct locations (eq. (11)).
///  * kAnalytic: tabulated from the fitted models on a uniform rho grid of
///    `grid_points` points and interpolated linearly. Passing the same list
///    object as A and B folds the symmetric sum to k <= l.
///  * kSimplified: rho_L * (sum w sigma)_A * (sum w sigma)_B; models not
///    required, and (mu_l, sigma_l, grid_points) are unused.
class MixtureCovariance {
 public:
  MixtureCovariance(const std::vector<RgComponent>& a, const std::vector<RgComponent>& b,
                    CorrelationMode mode, double mu_l, double sigma_l,
                    std::size_t grid_points = 33);

  /// F_AB(rho_l); rho_l in [0, 1]. Inline: the exact estimator calls it
  /// once per gate pair.
  double covariance(double rho_l) const {
    RGLEAK_REQUIRE(rho_l >= 0.0 && rho_l <= 1.0, "rho_L must be in [0, 1]");
    if (grid_.empty()) return scale_ * rho_l;
    const double pos = rho_l * static_cast<double>(grid_.size() - 1);
    const auto idx = std::min(static_cast<std::size_t>(pos), grid_.size() - 2);
    const double frac = pos - static_cast<double>(idx);
    return grid_[idx] + frac * (grid_[idx + 1] - grid_[idx]);
  }

 private:
  double scale_ = 0.0;        // simplified: F = scale_ * rho
  std::vector<double> grid_;  // analytic: F at rho = i / (grid_points - 1)
};

}  // namespace rgleak::charlib
