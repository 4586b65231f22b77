// Anisotropic-correlation support through the estimator chain: the linear,
// integral (rectangular, and polar by an axis rescale), exact, region, and
// Monte-Carlo paths all honour the per-axis scaling.

#include <gtest/gtest.h>

#include <cmath>

#include "../test_util.h"
#include "core/estimators.h"
#include "core/region_analysis.h"
#include "mc/full_chip_mc.h"
#include "netlist/random_circuit.h"
#include "util/require.h"

namespace rgleak::core {
namespace {

using rgleak::testing::mini_library;

charlib::CharacterizedLibrary aniso_chars(double ax, double ay) {
  process::LengthVariation len;
  len.mean_nm = 40.0;
  len.sigma_d2d_nm = len.sigma_wid_nm = 1.25;
  process::CorrelationAnisotropy an;
  an.scale_x = ax;
  an.scale_y = ay;
  const process::ProcessVariation p(
      len, process::VtVariation{}, std::make_shared<process::ExponentialCorrelation>(2.0e4),
      an);
  return charlib::characterize_analytic(mini_library(), p);
}

netlist::UsageHistogram usage() {
  netlist::UsageHistogram u;
  u.alphas.assign(mini_library().size(), 0.0);
  u.alphas[mini_library().index_of("INV_X1")] = 0.5;
  u.alphas[mini_library().index_of("NAND2_X1")] = 0.5;
  return u;
}

placement::Floorplan grid(std::size_t rows, std::size_t cols) {
  placement::Floorplan fp;
  fp.rows = rows;
  fp.cols = cols;
  fp.site_w_nm = fp.site_h_nm = 1500.0;
  return fp;
}

TEST(AnisotropicEstimation, LinearMatchesBruteForce) {
  const auto chars = aniso_chars(3.0, 1.0);
  const RandomGate rg(chars, usage(), 0.5, CorrelationMode::kAnalytic);
  const placement::Floorplan fp = grid(5, 7);
  double brute = 0.0;
  for (std::size_t a = 0; a < fp.num_sites(); ++a)
    for (std::size_t b = 0; b < fp.num_sites(); ++b) {
      const double dx = fp.site_x_nm(a % fp.cols) - fp.site_x_nm(b % fp.cols);
      const double dy = fp.site_y_nm(a / fp.cols) - fp.site_y_nm(b / fp.cols);
      brute += rg.covariance_at_offset(std::abs(dx), std::abs(dy));
    }
  EXPECT_NEAR(estimate_linear(rg, fp).variance_na2(), brute, 1e-9 * brute);
}

TEST(AnisotropicEstimation, OrientationMatters) {
  // A die elongated along the stretched (more correlated) axis keeps more
  // correlation than the same die rotated 90 degrees.
  const auto chars = aniso_chars(5.0, 1.0);
  const RandomGate rg(chars, usage(), 0.5, CorrelationMode::kAnalytic);
  const double var_along = estimate_linear(rg, grid(4, 64)).variance_na2();
  const double var_across = estimate_linear(rg, grid(64, 4)).variance_na2();
  EXPECT_GT(var_along, var_across * 1.05);
}

TEST(AnisotropicEstimation, PolarMatchesRect) {
  const auto chars = aniso_chars(3.0, 1.0);
  const RandomGate rg(chars, usage(), 0.5, CorrelationMode::kAnalytic);
  const placement::Floorplan fp = grid(50, 50);
  const LeakageEstimate polar = estimate_integral_polar(rg, fp);
  const LeakageEstimate rect = estimate_integral_rect(rg, fp);
  EXPECT_NEAR(polar.sigma_na, rect.sigma_na, 1e-7 * rect.sigma_na);
  const LeakageEstimate lin = estimate_linear(rg, fp);
  EXPECT_NEAR(polar.sigma_na, lin.sigma_na, 0.02 * lin.sigma_na);
}

TEST(AnisotropicEstimation, IsotropicLimitRecovered) {
  // ax = ay = 1 must reproduce the isotropic result exactly.
  const auto chars_iso = aniso_chars(1.0, 1.0);
  const RandomGate rg(chars_iso, usage(), 0.5, CorrelationMode::kAnalytic);
  EXPECT_NEAR(rg.covariance_at_offset(300.0, 400.0), rg.covariance_at_offset(500.0, 0.0),
              1e-12 * rg.variance_na2());
}

TEST(AnisotropicEstimation, ExactEstimatorAgreesWithRg) {
  const auto chars = aniso_chars(2.0, 1.0);
  const std::size_t rows = 20, cols = 20;
  const RandomGate rg(chars, usage(), 0.5, CorrelationMode::kAnalytic);
  const LeakageEstimate model = estimate_linear(rg, grid(rows, cols));

  math::Rng rng(3);
  const netlist::Netlist nl =
      netlist::generate_random_circuit(mini_library(), usage(), rows * cols, rng);
  const placement::Placement pl(&nl, grid(rows, cols));
  const ExactEstimator exact(chars, 0.5, CorrelationMode::kAnalytic);
  const LeakageEstimate truth = exact.estimate(pl);
  EXPECT_NEAR(truth.sigma_na, model.sigma_na, 0.03 * model.sigma_na);
}

TEST(AnisotropicEstimation, MonteCarloConfirmsAnisotropicSigma) {
  const auto chars = aniso_chars(4.0, 1.0);
  const std::size_t rows = 10, cols = 10;
  math::Rng rng(5);
  const netlist::Netlist nl =
      netlist::generate_random_circuit(mini_library(), usage(), rows * cols, rng);
  const placement::Placement pl(&nl, grid(rows, cols));

  const ExactEstimator exact(chars, 0.5, CorrelationMode::kAnalytic);
  const LeakageEstimate analytic = exact.estimate(pl);

  mc::FullChipMcOptions opts;
  opts.trials = 3000;
  opts.resample_states_per_trial = true;
  const mc::FullChipMcResult r = mc::FullChipMonteCarlo(pl, chars, opts).run();
  EXPECT_NEAR(r.mean_na, analytic.mean_na, 0.05 * analytic.mean_na);
  EXPECT_NEAR(r.sigma_na, analytic.sigma_na, 0.12 * analytic.sigma_na);
}

TEST(AnisotropicEstimation, RegionAnalysisReassembles) {
  const auto chars = aniso_chars(3.0, 1.0);
  const RandomGate rg(chars, usage(), 0.5, CorrelationMode::kAnalytic);
  const placement::Floorplan fp = grid(12, 12);
  const RegionAnalysis region(&rg, fp, 3, 4);
  EXPECT_NEAR(region.chip_estimate().sigma_na, estimate_linear(rg, fp).sigma_na,
              1e-9 * estimate_linear(rg, fp).sigma_na);
  // Tiles offset along the stretched x axis are more correlated than tiles
  // offset along y by the same number of sites.
  EXPECT_GT(region.tile_correlation(0, 0, 1, 0), region.tile_correlation(0, 0, 0, 1));
}

}  // namespace
}  // namespace rgleak::core
