#include "charlib/correlation_map.h"

#include <gtest/gtest.h>

#include <cmath>

#include "../test_util.h"
#include "math/gaussian_moments.h"
#include "math/linalg.h"
#include "math/rng.h"
#include "math/stats.h"
#include "util/require.h"

namespace rgleak::charlib {
namespace {

using rgleak::testing::mini_chars_analytic;
using rgleak::testing::mini_library;

math::LogQuadraticModel model_a() { return {2.0e4, -0.12, 0.0025}; }
math::LogQuadraticModel model_b() { return {5.0e3, -0.08, 0.0015}; }

constexpr double kMu = 40.0, kSigma = 2.5;

// The mixture tests must evaluate pair expectations at the SAME length
// statistics the fixture library was characterized with.
double fixture_sigma() { return rgleak::testing::test_process().length().sigma_total_nm(); }

TEST(PairMoments, ZeroRhoFactorizes) {
  const double e = pair_product_expectation(model_a(), model_b(), kMu, kSigma, 0.0);
  const math::LogQuadraticMoments ma(model_a(), kMu, kSigma);
  const math::LogQuadraticMoments mb(model_b(), kMu, kSigma);
  EXPECT_NEAR(e, ma.mean() * mb.mean(), 1e-9 * e);
  EXPECT_NEAR(pair_leakage_covariance(model_a(), model_b(), kMu, kSigma, 0.0), 0.0,
              1e-9 * e);
  EXPECT_NEAR(pair_leakage_correlation(model_a(), model_b(), kMu, kSigma, 0.0), 0.0, 1e-9);
}

TEST(PairMoments, IdenticalModelsAtRhoOneGiveVariance) {
  const math::LogQuadraticMoments ma(model_a(), kMu, kSigma);
  const double cov = pair_leakage_covariance(model_a(), model_a(), kMu, kSigma, 1.0);
  EXPECT_NEAR(cov, ma.variance(), 1e-8 * ma.variance());
  EXPECT_NEAR(pair_leakage_correlation(model_a(), model_a(), kMu, kSigma, 1.0), 1.0, 1e-8);
}

TEST(PairMoments, CorrelationMonotoneInRho) {
  double prev = -1.0;
  for (double rho = 0.0; rho <= 1.0; rho += 0.05) {
    const double f = pair_leakage_correlation(model_a(), model_b(), kMu, kSigma, rho);
    EXPECT_GT(f, prev);
    prev = f;
  }
}

TEST(PairMoments, MappingIsCloseToIdentity) {
  // Fig. 2 of the paper: f_{m,n} hugs the y = x line.
  for (double rho = 0.0; rho <= 1.0; rho += 0.1) {
    const double f = pair_leakage_correlation(model_a(), model_b(), kMu, kSigma, rho);
    EXPECT_NEAR(f, rho, 0.08) << "rho=" << rho;
  }
}

TEST(PairMoments, MatchesMonteCarlo) {
  const double rho = 0.55;
  math::Rng rng(99);
  math::RunningCovariance cov;
  const auto ma = model_a();
  const auto mb = model_b();
  for (int i = 0; i < 400000; ++i) {
    const double z1 = rng.normal();
    const double z2 = rho * z1 + std::sqrt(1 - rho * rho) * rng.normal();
    cov.add(ma(kMu + kSigma * z1), mb(kMu + kSigma * z2));
  }
  const double closed = pair_leakage_correlation(ma, mb, kMu, kSigma, rho);
  EXPECT_NEAR(closed, cov.correlation(), 0.01);
}

TEST(RgComponents, WeightsAreUsageTimesStateProbability) {
  const auto& chars = mini_chars_analytic();
  std::vector<double> usage(chars.size(), 0.0);
  usage[mini_library().index_of("INV_X1")] = 0.6;
  usage[mini_library().index_of("NAND2_X1")] = 0.4;
  const auto comps = make_rg_components(chars, usage, 0.5);
  // INV contributes 2 states, NAND2 contributes 4.
  ASSERT_EQ(comps.size(), 6u);
  double total = 0.0;
  for (const auto& c : comps) total += c.weight;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(RgComponents, DropsZeroWeightStates) {
  const auto& chars = mini_chars_analytic();
  std::vector<double> usage(chars.size(), 0.0);
  usage[mini_library().index_of("NAND2_X1")] = 1.0;
  // p = 0: only state 00 survives.
  const auto comps = make_rg_components(chars, usage, 0.0);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_NEAR(comps[0].weight, 1.0, 1e-12);
}

TEST(RgComponents, ContractChecks) {
  const auto& chars = mini_chars_analytic();
  std::vector<double> bad(chars.size(), 0.0);
  EXPECT_THROW(make_rg_components(chars, bad, 0.5), ContractViolation);  // sums to 0
  bad.assign(chars.size() - 1, 0.1);
  EXPECT_THROW(make_rg_components(chars, bad, 0.5), ContractViolation);  // wrong size
}

std::vector<RgComponent> test_components() {
  const auto& chars = mini_chars_analytic();
  std::vector<double> usage(chars.size(), 0.0);
  usage[mini_library().index_of("INV_X1")] = 0.5;
  usage[mini_library().index_of("NOR2_X1")] = 0.5;
  return make_rg_components(chars, usage, 0.5);
}

std::vector<RgComponent> other_components() {
  const auto& chars = mini_chars_analytic();
  std::vector<double> usage(chars.size(), 0.0);
  usage[mini_library().index_of("NAND2_X1")] = 0.7;
  usage[mini_library().index_of("AOI21_X1")] = 0.3;
  return make_rg_components(chars, usage, 0.3);
}

TEST(MixtureMoments, MatchEquations) {
  const auto comps = test_components();
  const MixtureMoments mo = mixture_moments(comps);
  // Eqs (7)-(8) by hand.
  double mean = 0.0, second = 0.0;
  for (const auto& c : comps) {
    mean += c.weight * c.mean_na;
    second += c.weight * (c.sigma_na * c.sigma_na + c.mean_na * c.mean_na);
  }
  EXPECT_NEAR(mo.mean, mean, 1e-9 * mean);
  EXPECT_NEAR(mo.variance, second - mean * mean, 1e-6 * mo.variance);
}

// The one F(rho) table, for the RG auto-covariance (the same list as A and B,
// folded to k <= l) and for two different mixtures, at several grid sizes.
struct MixtureCase {
  const char* name;
  bool same_list;
  std::size_t grid_points;
  friend void PrintTo(const MixtureCase& c, std::ostream* os) { *os << c.name; }
};

class MixtureCovarianceTest : public ::testing::TestWithParam<MixtureCase> {
 protected:
  std::vector<RgComponent> a_ = test_components();
  std::vector<RgComponent> b_ = other_components();
  const std::vector<RgComponent>& b() const { return GetParam().same_list ? a_ : b_; }
  MixtureCovariance table(CorrelationMode mode) const {
    return MixtureCovariance(a_, b(), mode, kMu, fixture_sigma(), GetParam().grid_points);
  }
};

TEST_P(MixtureCovarianceTest, AnalyticNodesMatchBruteForceExpectation) {
  // sum_k sum_l w_k w_l Cov(X_k, X_l; rho) with each product moment taken
  // through the n-D expectation_exp_quadratic, not the 2-D kernel the table
  // uses.
  const double sigma = fixture_sigma();
  const auto product_moment = [&](const RgComponent& ca, const RgComponent& cb, double rho) {
    const math::LogQuadraticModel& ma = *ca.model;
    const math::LogQuadraticModel& mb = *cb.model;
    if (rho == 1.0)  // singular 2-D covariance: L1 = L2, a 1-D expectation
      return ma.a * mb.a *
             math::expectation_exp_quadratic({ma.b + mb.b}, math::Matrix(1, 1, ma.c + mb.c),
                                             {kMu}, math::Matrix(1, 1, sigma * sigma));
    math::Matrix quad(2, 2), cov_l(2, 2);
    quad(0, 0) = ma.c;
    quad(1, 1) = mb.c;
    cov_l(0, 0) = cov_l(1, 1) = sigma * sigma;
    cov_l(0, 1) = cov_l(1, 0) = rho * sigma * sigma;
    return ma.a * mb.a * math::expectation_exp_quadratic({ma.b, mb.b}, quad, {kMu, kMu}, cov_l);
  };
  const auto brute = [&](double rho, double& mean_scale) {
    double f = 0.0;
    mean_scale = 0.0;
    for (const auto& ca : a_) {
      for (const auto& cb : b()) {
        f += ca.weight * cb.weight * (product_moment(ca, cb, rho) - ca.mean_na * cb.mean_na);
        mean_scale += ca.weight * cb.weight * ca.mean_na * cb.mean_na;
      }
    }
    return f;
  };
  const MixtureCovariance t = table(CorrelationMode::kAnalytic);
  const std::size_t g = GetParam().grid_points;
  for (std::size_t i = 0; i < g; ++i) {
    const double rho = static_cast<double>(i) / static_cast<double>(g - 1);
    double mean_scale = 0.0;
    const double f = brute(rho, mean_scale);
    // F is a difference of product moments; rounding scales with them.
    EXPECT_NEAR(t.covariance(rho), f, 1e-12 * (std::abs(f) + mean_scale)) << "rho=" << rho;
  }
}

TEST_P(MixtureCovarianceTest, SimplifiedIsRhoTimesWeightedSigmas) {
  double sa = 0.0, sb = 0.0;
  for (const auto& c : a_) sa += c.weight * c.sigma_na;
  for (const auto& c : b()) sb += c.weight * c.sigma_na;
  const MixtureCovariance t = table(CorrelationMode::kSimplified);
  for (double rho : {0.0, 0.25, 0.6, 1.0})
    EXPECT_NEAR(t.covariance(rho), rho * sa * sb, 1e-12 * sa * sb) << "rho=" << rho;
  EXPECT_DOUBLE_EQ(t.covariance(0.0), 0.0);
}

TEST_P(MixtureCovarianceTest, ZeroAtZeroRhoAndMonotone) {
  const MixtureCovariance t = table(CorrelationMode::kAnalytic);
  const double top = t.covariance(1.0);
  EXPECT_GT(top, 0.0);
  EXPECT_NEAR(t.covariance(0.0), 0.0, 1e-6 * top);
  double prev = -1.0;
  for (double rho = 0.0; rho <= 1.0; rho += 0.02) {
    const double f = t.covariance(rho);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST_P(MixtureCovarianceTest, AnalyticRequiresModels) {
  a_[0].model.reset();
  EXPECT_THROW(table(CorrelationMode::kAnalytic), ContractViolation);
  EXPECT_NO_THROW(table(CorrelationMode::kSimplified));
}

TEST_P(MixtureCovarianceTest, RejectsRhoOutsideUnitInterval) {
  const MixtureCovariance t = table(CorrelationMode::kAnalytic);
  EXPECT_THROW(t.covariance(-0.1), ContractViolation);
  EXPECT_THROW(t.covariance(1.1), ContractViolation);
}

INSTANTIATE_TEST_SUITE_P(
    SameAndCrossLists, MixtureCovarianceTest,
    ::testing::Values(MixtureCase{"SameGrid17", true, 17}, MixtureCase{"SameGrid65", true, 65},
                      MixtureCase{"SameGrid257", true, 257},
                      MixtureCase{"CrossGrid17", false, 17},
                      MixtureCase{"CrossGrid33", false, 33},
                      MixtureCase{"CrossGrid257", false, 257}),
    [](const ::testing::TestParamInfo<MixtureCase>& info) { return info.param.name; });

TEST(MixtureCovariance, FoldedSameListEqualsUnfoldedCopy) {
  const auto comps = test_components();
  const auto copy = comps;
  const MixtureCovariance folded(comps, comps, CorrelationMode::kAnalytic, kMu, fixture_sigma());
  const MixtureCovariance full(comps, copy, CorrelationMode::kAnalytic, kMu, fixture_sigma());
  for (double rho = 0.0; rho <= 1.0; rho += 0.05)
    EXPECT_NEAR(folded.covariance(rho), full.covariance(rho), 1e-12 * full.covariance(1.0));
}

TEST(MixtureCovariance, BelowMixtureVarianceAtRhoOne) {
  // F(1) < sigma^2_XI: same-location variance includes gate-choice variance.
  const auto comps = test_components();
  const MixtureCovariance t(comps, comps, CorrelationMode::kAnalytic, kMu, fixture_sigma());
  EXPECT_LT(t.covariance(1.0), mixture_moments(comps).variance);
}

TEST(MixtureCovariance, GridInterpolationAccurate) {
  // A coarse grid must agree with a fine grid everywhere.
  const auto comps = test_components();
  const MixtureCovariance coarse(comps, comps, CorrelationMode::kAnalytic, kMu, fixture_sigma(),
                                 17);
  const MixtureCovariance fine(comps, comps, CorrelationMode::kAnalytic, kMu, fixture_sigma(),
                               257);
  const double variance = mixture_moments(comps).variance;
  for (double rho = 0.0; rho <= 1.0; rho += 0.013) {
    EXPECT_NEAR(coarse.covariance(rho), fine.covariance(rho), 2e-3 * variance + 1e-12)
        << "rho=" << rho;
  }
}

TEST(SimplifiedVsAnalytic, CloseForOurLibrary) {
  // Section 3.1.2: the rho_mn = rho_L simplification changes the covariance
  // by only a few percent.
  const auto comps = test_components();
  const MixtureCovariance a(comps, comps, CorrelationMode::kAnalytic, kMu, fixture_sigma());
  const MixtureCovariance s(comps, comps, CorrelationMode::kSimplified, kMu, fixture_sigma());
  for (double rho : {0.2, 0.5, 0.8, 1.0}) {
    EXPECT_NEAR(a.covariance(rho), s.covariance(rho), 0.10 * a.covariance(1.0))
        << "rho=" << rho;
  }
}

}  // namespace
}  // namespace rgleak::charlib
