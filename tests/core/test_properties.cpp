// Property-style parameterized sweeps: invariants that must hold across
// correlation-model families, usage mixes, die shapes, and signal
// probabilities simultaneously.

#include <gtest/gtest.h>

#include <cmath>

#include "../test_util.h"
#include "core/estimators.h"
#include "core/region_analysis.h"
#include "util/require.h"

namespace rgleak::core {
namespace {

using rgleak::testing::mini_library;

struct SweepCase {
  std::string corr_family;
  double corr_scale_nm;
  double d2d_share;
  double signal_p;
};

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  const auto& c = info.param;
  std::string n = c.corr_family + "_s" + std::to_string(static_cast<int>(c.corr_scale_nm / 1000)) +
                  "k_d" + std::to_string(static_cast<int>(100 * c.d2d_share)) + "_p" +
                  std::to_string(static_cast<int>(100 * c.signal_p));
  return n;
}

class EstimatorPropertyTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  static charlib::CharacterizedLibrary make_chars(const SweepCase& c) {
    process::LengthVariation len;
    len.mean_nm = 40.0;
    const double total_var = 2.5 * 2.5;
    len.sigma_d2d_nm = std::sqrt(total_var * c.d2d_share);
    len.sigma_wid_nm = std::sqrt(total_var * (1.0 - c.d2d_share));
    const process::ProcessVariation process(
        len, process::VtVariation{},
        process::make_correlation(c.corr_family, c.corr_scale_nm));
    return charlib::characterize_analytic(mini_library(), process);
  }

  static netlist::UsageHistogram usage() {
    netlist::UsageHistogram u;
    u.alphas.assign(mini_library().size(), 0.0);
    u.alphas[mini_library().index_of("INV_X1")] = 0.4;
    u.alphas[mini_library().index_of("NAND2_X1")] = 0.3;
    u.alphas[mini_library().index_of("AOI21_X1")] = 0.3;
    return u;
  }

  static placement::Floorplan grid(std::size_t side) {
    placement::Floorplan fp;
    fp.rows = fp.cols = side;
    fp.site_w_nm = fp.site_h_nm = 1500.0;
    return fp;
  }
};

TEST_P(EstimatorPropertyTest, VarianceBounds) {
  // For any process structure: n*sigma_RG^2 <= Var_total <= n^2*sigma_RG^2.
  const auto chars = make_chars(GetParam());
  const RandomGate rg(chars, usage(), GetParam().signal_p, CorrelationMode::kAnalytic);
  const std::size_t side = 12;
  const double n = static_cast<double>(side * side);
  const double var = estimate_linear(rg, grid(side)).variance_na2();
  EXPECT_GE(var, n * rg.variance_na2() * (1.0 - 1e-9));
  EXPECT_LE(var, n * n * rg.variance_na2() * (1.0 + 1e-9));
}

TEST_P(EstimatorPropertyTest, LinearMatchesBruteForce) {
  // Eq. (17) must be an exact transformation for every correlation family.
  const auto chars = make_chars(GetParam());
  const RandomGate rg(chars, usage(), GetParam().signal_p, CorrelationMode::kAnalytic);
  const placement::Floorplan fp = grid(6);
  double brute = 0.0;
  for (std::size_t a = 0; a < fp.num_sites(); ++a)
    for (std::size_t b = 0; b < fp.num_sites(); ++b) {
      const double dx = fp.site_x_nm(a % fp.cols) - fp.site_x_nm(b % fp.cols);
      const double dy = fp.site_y_nm(a / fp.cols) - fp.site_y_nm(b / fp.cols);
      brute += rg.covariance_at_offset(dx, dy);
    }
  EXPECT_NEAR(estimate_linear(rg, fp).variance_na2(), brute, 1e-9 * brute);
}

TEST_P(EstimatorPropertyTest, IntegralTracksLinear) {
  const auto chars = make_chars(GetParam());
  const RandomGate rg(chars, usage(), GetParam().signal_p, CorrelationMode::kAnalytic);
  const LeakageEstimate lin = estimate_linear(rg, grid(40));
  const LeakageEstimate rect = estimate_integral_rect(rg, grid(40));
  EXPECT_NEAR(rect.sigma_na, lin.sigma_na, 0.02 * lin.sigma_na);
}

TEST_P(EstimatorPropertyTest, TileDecompositionExact) {
  const auto chars = make_chars(GetParam());
  const RandomGate rg(chars, usage(), GetParam().signal_p, CorrelationMode::kAnalytic);
  const RegionAnalysis region(&rg, grid(12), 3, 4);
  const LeakageEstimate direct = estimate_linear(rg, grid(12));
  EXPECT_NEAR(region.chip_estimate().sigma_na, direct.sigma_na, 1e-9 * direct.sigma_na);
}

TEST_P(EstimatorPropertyTest, MoreD2dMeansMoreChipVariance) {
  // Holding total cell-level variance fixed, shifting variance from WID to
  // D2D cannot reduce chip-level variance (correlation only goes up).
  SweepCase c = GetParam();
  if (c.d2d_share > 0.5) GTEST_SKIP() << "needs headroom to raise the share";
  const auto chars_lo = make_chars(c);
  SweepCase hi = c;
  hi.d2d_share = c.d2d_share + 0.4;
  const auto chars_hi = make_chars(hi);
  const RandomGate rg_lo(chars_lo, usage(), c.signal_p, CorrelationMode::kAnalytic);
  const RandomGate rg_hi(chars_hi, usage(), c.signal_p, CorrelationMode::kAnalytic);
  const double v_lo = estimate_linear(rg_lo, grid(20)).variance_na2();
  const double v_hi = estimate_linear(rg_hi, grid(20)).variance_na2();
  EXPECT_GT(v_hi, v_lo * 0.999);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EstimatorPropertyTest,
    ::testing::Values(SweepCase{"exponential", 2.0e4, 0.5, 0.5},
                      SweepCase{"exponential", 1.0e5, 0.0, 0.3},
                      SweepCase{"gaussian", 3.0e4, 0.5, 0.5},
                      SweepCase{"gaussian", 1.0e4, 0.25, 0.7},
                      SweepCase{"linear", 5.0e4, 0.5, 0.5},
                      SweepCase{"spherical", 5.0e4, 0.25, 0.5},
                      SweepCase{"matern32", 2.0e4, 0.5, 0.4},
                      SweepCase{"exponential", 2.0e4, 1.0, 0.5}),
    case_name);

}  // namespace
}  // namespace rgleak::core
