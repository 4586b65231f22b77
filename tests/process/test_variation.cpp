#include "process/variation.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/require.h"

namespace rgleak::process {
namespace {

ProcessVariation make(double sdd, double swid, double lc = 1000.0) {
  LengthVariation len;
  len.mean_nm = 40.0;
  len.sigma_d2d_nm = sdd;
  len.sigma_wid_nm = swid;
  return ProcessVariation(len, VtVariation{}, std::make_shared<ExponentialCorrelation>(lc));
}

TEST(LengthVariation, TotalSigmaQuadrature) {
  LengthVariation len;
  len.sigma_d2d_nm = 3.0;
  len.sigma_wid_nm = 4.0;
  EXPECT_NEAR(len.sigma_total_nm(), 5.0, 1e-12);
  EXPECT_NEAR(len.d2d_variance_fraction(), 9.0 / 25.0, 1e-12);
}

TEST(ProcessVariation, TotalCorrelationAtZeroIsOne) {
  EXPECT_DOUBLE_EQ(make(1.0, 2.0).total_length_correlation_xy(0.0, 0.0), 1.0);
}

TEST(ProcessVariation, TotalCorrelationFloorsAtD2dFraction) {
  const auto p = make(1.0, 1.0, 100.0);
  // Far beyond the WID range, only the D2D share remains: 0.5 here.
  EXPECT_NEAR(p.total_length_correlation_xy(1e9, 0.0), 0.5, 1e-6);
}

TEST(ProcessVariation, NormalizationBlendsWidCorrelation) {
  const auto p = make(1.0, 1.0, 1000.0);
  const double d = std::log(2.0) * 1000.0;  // rho_wid = 0.5 exactly
  EXPECT_NEAR(p.total_length_correlation_xy(d, 0.0), (1.0 + 0.5) / 2.0, 1e-12);
}

TEST(ProcessVariation, PureWidMatchesModel) {
  const auto p = make(0.0, 2.0, 500.0);
  EXPECT_NEAR(p.total_length_correlation_xy(500.0, 0.0), std::exp(-1.0), 1e-12);
}

TEST(ProcessVariation, PureD2dIsAlwaysOne) {
  const auto p = make(2.0, 0.0);
  EXPECT_NEAR(p.total_length_correlation_xy(12345.0, 0.0), 1.0, 1e-12);
}

TEST(ProcessVariation, MonotoneNonIncreasing) {
  const auto p = make(0.8, 1.7, 300.0);
  double prev = 1.0;
  for (double d = 0.0; d < 3000.0; d += 25.0) {
    const double r = p.total_length_correlation_xy(d, 0.0);
    EXPECT_LE(r, prev + 1e-12);
    prev = r;
  }
}

TEST(ProcessVariation, ConstructionContracts) {
  LengthVariation len;
  len.mean_nm = -1.0;
  EXPECT_THROW(
      ProcessVariation(len, VtVariation{}, std::make_shared<ExponentialCorrelation>(1.0)),
      ContractViolation);
  EXPECT_THROW(ProcessVariation(LengthVariation{}, VtVariation{}, nullptr), ContractViolation);
  LengthVariation bad;
  bad.sigma_d2d_nm = -0.1;
  EXPECT_THROW(
      ProcessVariation(bad, VtVariation{}, std::make_shared<ExponentialCorrelation>(1.0)),
      ContractViolation);
}

TEST(ProcessVariation, DefaultProcessIsSane) {
  const ProcessVariation p = default_process();
  EXPECT_GT(p.length().mean_nm, 0.0);
  EXPECT_GT(p.length().sigma_total_nm(), 0.0);
  EXPECT_DOUBLE_EQ(p.total_length_correlation_xy(0.0, 0.0), 1.0);
  EXPECT_GT(p.wid_correlation().range_nm(), 0.0);
}

TEST(ProcessVariation, ZeroVarianceCorrelationThrows) {
  const auto p = make(0.0, 0.0);
  EXPECT_THROW(p.total_length_correlation_xy(1.0, 0.0), ContractViolation);
}

}  // namespace
}  // namespace rgleak::process
