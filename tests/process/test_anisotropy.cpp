#include <gtest/gtest.h>

#include <cmath>

#include "math/stats.h"
#include "process/field_sampler.h"
#include "process/variation.h"
#include "util/require.h"

namespace rgleak::process {
namespace {

ProcessVariation aniso_process(double ax, double ay, double lc = 1000.0) {
  LengthVariation len;
  len.mean_nm = 40.0;
  len.sigma_d2d_nm = 1.0;
  len.sigma_wid_nm = 1.0;
  CorrelationAnisotropy an;
  an.scale_x = ax;
  an.scale_y = ay;
  return ProcessVariation(len, VtVariation{}, std::make_shared<ExponentialCorrelation>(lc),
                          an);
}

TEST(Anisotropy, IsotropicByDefault) {
  const ProcessVariation p = aniso_process(1.0, 1.0);
  EXPECT_DOUBLE_EQ(p.total_length_correlation_xy(300.0, 400.0),
                   p.total_length_correlation_xy(500.0, 0.0));
}

TEST(Anisotropy, StretchedAxisStaysCorrelatedLonger) {
  const ProcessVariation p = aniso_process(4.0, 1.0);
  // At the same physical separation, x-offsets keep more correlation.
  EXPECT_GT(p.total_length_correlation_xy(2000.0, 0.0),
            p.total_length_correlation_xy(0.0, 2000.0));
  // And the x-axis correlation matches an isotropic model with a 4x longer
  // correlation length.
  const ProcessVariation iso = aniso_process(1.0, 1.0, 4000.0);
  EXPECT_NEAR(p.total_length_correlation_xy(2000.0, 0.0),
              iso.total_length_correlation_xy(2000.0, 0.0), 1e-12);
}

TEST(Anisotropy, UniformScaleIsStillIsotropic) {
  const ProcessVariation p = aniso_process(2.0, 2.0);
  // Equivalent to doubling the correlation length.
  const ProcessVariation iso = aniso_process(1.0, 1.0, 2000.0);
  EXPECT_NEAR(p.total_length_correlation_xy(700.0, 300.0),
              iso.total_length_correlation_xy(700.0, 300.0), 1e-12);
}

TEST(Anisotropy, RejectsNonPositiveScales) {
  CorrelationAnisotropy bad;
  bad.scale_x = 0.0;
  EXPECT_THROW(ProcessVariation(LengthVariation{}, VtVariation{},
                                std::make_shared<ExponentialCorrelation>(1.0), bad),
               ContractViolation);
}

TEST(Anisotropy, FieldSamplerMatchesAnisotropicKernel) {
  const ExponentialCorrelation rho(400.0);
  CorrelationAnisotropy an;
  an.scale_x = 3.0;
  an.scale_y = 1.0;
  GridFieldSampler sampler(6, 6, 150.0, 150.0, rho, 1.0, an);
  math::Rng rng(17);
  math::RunningCovariance x_lag, y_lag;
  for (int t = 0; t < 40000; ++t) {
    const auto f = sampler.sample(rng);
    x_lag.add(f[0], f[2]);       // dx = 300
    y_lag.add(f[0], f[2 * 6]);   // dy = 300
  }
  EXPECT_NEAR(x_lag.correlation(), rho(300.0 / 3.0), 0.02);
  EXPECT_NEAR(y_lag.correlation(), rho(300.0), 0.02);
  EXPECT_GT(x_lag.correlation(), y_lag.correlation());
}

}  // namespace
}  // namespace rgleak::process
