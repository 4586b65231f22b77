#include "core/leakage_estimator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "../test_util.h"
#include "util/require.h"

namespace rgleak::core {
namespace {

using rgleak::testing::mini_chars_analytic;
using rgleak::testing::mini_library;

DesignCharacteristics test_design(std::size_t n = 2500) {
  DesignCharacteristics d;
  d.usage.alphas.assign(mini_library().size(), 0.0);
  d.usage.alphas[mini_library().index_of("INV_X1")] = 0.5;
  d.usage.alphas[mini_library().index_of("NAND2_X1")] = 0.5;
  d.gate_count = n;
  d.width_nm = 7.5e4;
  d.height_nm = 7.5e4;
  return d;
}

TEST(FloorplanForDesign, TilesLayoutDimensions) {
  const DesignCharacteristics d = test_design(2500);
  const placement::Floorplan fp = floorplan_for_design(d);
  EXPECT_GE(fp.num_sites(), d.gate_count);
  EXPECT_NEAR(fp.width_nm(), d.width_nm, 1e-6 * d.width_nm);
  EXPECT_NEAR(fp.height_nm(), d.height_nm, 1e-6 * d.height_nm);
  EXPECT_EQ(fp.rows, 50u);
  EXPECT_EQ(fp.cols, 50u);
}

TEST(FloorplanForDesign, RespectsAspectRatio) {
  DesignCharacteristics d = test_design(5000);
  d.width_nm = 2.0e5;
  d.height_nm = 0.5e5;  // 4:1 aspect
  const placement::Floorplan fp = floorplan_for_design(d);
  const double aspect =
      static_cast<double>(fp.cols) / static_cast<double>(fp.rows);
  EXPECT_GT(aspect, 2.5);
  EXPECT_LT(aspect, 6.0);
}

TEST(FloorplanForDesign, ContractChecks) {
  DesignCharacteristics d = test_design();
  d.gate_count = 0;
  EXPECT_THROW(floorplan_for_design(d), ContractViolation);
  d = test_design();
  d.width_nm = 0.0;
  EXPECT_THROW(floorplan_for_design(d), ContractViolation);
}

TEST(LeakageEstimator, MethodsAgreeOnMediumDesign) {
  EstimatorConfig cfg;
  cfg.maximize_signal_probability = false;
  cfg.apply_vt_mean_factor = false;
  const DesignCharacteristics d = test_design(2500);

  cfg.method = EstimationMethod::kLinear;
  const LeakageEstimate lin = LeakageEstimator(mini_chars_analytic(), cfg).estimate(d);
  cfg.method = EstimationMethod::kIntegralRect;
  const LeakageEstimate rect = LeakageEstimator(mini_chars_analytic(), cfg).estimate(d);
  cfg.method = EstimationMethod::kIntegralPolar;
  const LeakageEstimate polar = LeakageEstimator(mini_chars_analytic(), cfg).estimate(d);

  EXPECT_NEAR(rect.sigma_na, lin.sigma_na, 0.01 * lin.sigma_na);
  EXPECT_NEAR(polar.sigma_na, lin.sigma_na, 0.01 * lin.sigma_na);
  EXPECT_DOUBLE_EQ(rect.mean_na, lin.mean_na);
}

TEST(LeakageEstimator, VtFactorScalesMeanOnly) {
  EstimatorConfig cfg;
  cfg.maximize_signal_probability = false;
  cfg.method = EstimationMethod::kLinear;
  cfg.apply_vt_mean_factor = false;
  const LeakageEstimate base =
      LeakageEstimator(mini_chars_analytic(), cfg).estimate(test_design());
  cfg.apply_vt_mean_factor = true;
  const LeakageEstimate with_vt =
      LeakageEstimator(mini_chars_analytic(), cfg).estimate(test_design());
  const double factor = vt_mean_factor(mini_chars_analytic().process().vt(),
                                       mini_chars_analytic().library().tech());
  EXPECT_GT(factor, 1.0);
  EXPECT_NEAR(with_vt.mean_na, base.mean_na * factor, 1e-9 * with_vt.mean_na);
  EXPECT_DOUBLE_EQ(with_vt.sigma_na, base.sigma_na);
}

TEST(LeakageEstimator, MaximizePolicyIsConservative) {
  EstimatorConfig fixed;
  fixed.maximize_signal_probability = false;
  fixed.signal_probability = 0.5;
  fixed.method = EstimationMethod::kLinear;
  EstimatorConfig maxed = fixed;
  maxed.maximize_signal_probability = true;
  const LeakageEstimate at_half =
      LeakageEstimator(mini_chars_analytic(), fixed).estimate(test_design());
  const LeakageEstimate at_max =
      LeakageEstimator(mini_chars_analytic(), maxed).estimate(test_design());
  EXPECT_GE(at_max.mean_na, at_half.mean_na * 0.999);
}

TEST(LeakageEstimator, AutoMethodSelectsBySize) {
  EstimatorConfig cfg;
  cfg.maximize_signal_probability = false;
  cfg.method = EstimationMethod::kAuto;
  const LeakageEstimator est(mini_chars_analytic(), cfg);
  // Small design: linear; large: polar. Both must run and be consistent.
  const LeakageEstimate small = est.estimate(test_design(400));
  DesignCharacteristics big = test_design(250000);
  big.width_nm = 7.5e5;
  big.height_nm = 7.5e5;
  const LeakageEstimate large = est.estimate(big);
  EXPECT_GT(small.mean_na, 0.0);
  EXPECT_GT(large.mean_na, small.mean_na);
}

TEST(LeakageEstimator, ScalesLinearlnMeanWithGateCount) {
  EstimatorConfig cfg;
  cfg.maximize_signal_probability = false;
  cfg.method = EstimationMethod::kLinear;
  const LeakageEstimator est(mini_chars_analytic(), cfg);
  const LeakageEstimate e1 = est.estimate(test_design(900));
  DesignCharacteristics d2 = test_design(3600);
  d2.width_nm *= 2.0;
  d2.height_nm *= 2.0;
  const LeakageEstimate e2 = est.estimate(d2);
  EXPECT_NEAR(e2.mean_na / e1.mean_na, 4.0, 0.01);
  // Relative sigma shrinks with size (averaging), but absolute sigma grows.
  EXPECT_GT(e2.sigma_na, e1.sigma_na);
  EXPECT_LT(e2.cv(), e1.cv());
}

TEST(LeakageEstimator, ResolveSignalProbability) {
  EstimatorConfig cfg;
  cfg.maximize_signal_probability = false;
  cfg.signal_probability = 0.37;
  const LeakageEstimator est(mini_chars_analytic(), cfg);
  EXPECT_DOUBLE_EQ(est.resolve_signal_probability(test_design().usage), 0.37);
  EXPECT_THROW(LeakageEstimator(mini_chars_analytic(), [] {
                 EstimatorConfig c;
                 c.signal_probability = 1.5;
                 return c;
               }()),
               ContractViolation);
}

TEST(MethodNames, ParseEveryNameAndRejectUnknownOnes) {
  EXPECT_EQ(parse_estimation_method("auto"), EstimationMethod::kAuto);
  EXPECT_EQ(parse_estimation_method("linear"), EstimationMethod::kLinear);
  EXPECT_EQ(parse_estimation_method("rect"), EstimationMethod::kIntegralRect);
  EXPECT_EQ(parse_estimation_method("polar"), EstimationMethod::kIntegralPolar);
  EXPECT_THROW(parse_estimation_method("integral_polar"), ConfigError);
  EXPECT_EQ(parse_exact_method("auto"), ExactMethod::kAuto);
  EXPECT_EQ(parse_exact_method("direct"), ExactMethod::kDirect);
  EXPECT_EQ(parse_exact_method("fft"), ExactMethod::kFft);
  EXPECT_THROW(parse_exact_method("FFT"), ConfigError);
  // One auto threshold for the planner's rung and the estimator's path.
  EXPECT_EQ(exact_rung(ExactMethod::kAuto, 63), "exact_direct");
  EXPECT_EQ(exact_rung(ExactMethod::kAuto, 64), "exact_fft");
  EXPECT_EQ(exact_rung(ExactMethod::kDirect, 4096), "exact_direct");
}

TEST(LeakageEstimate, HelperAccessors) {
  LeakageEstimate e;
  e.mean_na = 200.0;
  e.sigma_na = 50.0;
  EXPECT_DOUBLE_EQ(e.variance_na2(), 2500.0);
  EXPECT_DOUBLE_EQ(e.cv(), 0.25);
}

}  // namespace
}  // namespace rgleak::core
