#include "core/random_gate.h"

#include <gtest/gtest.h>

#include <cmath>

#include "../test_util.h"
#include "util/require.h"

namespace rgleak::core {
namespace {

using rgleak::testing::mini_chars_analytic;
using rgleak::testing::mini_chars_mc;
using rgleak::testing::mini_library;

netlist::UsageHistogram test_usage() {
  netlist::UsageHistogram u;
  u.alphas.assign(mini_library().size(), 0.0);
  u.alphas[mini_library().index_of("INV_X1")] = 0.4;
  u.alphas[mini_library().index_of("NAND2_X1")] = 0.4;
  u.alphas[mini_library().index_of("NOR2_X1")] = 0.2;
  return u;
}

TEST(RandomGate, MeanIsUsageWeightedMixture) {
  const RandomGate rg(mini_chars_analytic(), test_usage(), 0.5, CorrelationMode::kAnalytic);
  // Eq. (7) by hand.
  double mean = 0.0;
  const auto& chars = mini_chars_analytic();
  const auto usage = test_usage();
  for (std::size_t ci = 0; ci < chars.size(); ++ci) {
    if (usage.alphas[ci] == 0.0) continue;
    const auto sp = chars.state_probabilities(ci, 0.5);
    mean += usage.alphas[ci] * chars.effective(ci, sp).mean_na;
  }
  EXPECT_NEAR(rg.mean_na(), mean, 1e-9 * mean);
}

TEST(RandomGate, VarianceExceedsMeanWeightedCellVariances) {
  // Eq. (8): gate-choice randomness adds variance beyond the average cell
  // variance.
  const RandomGate rg(mini_chars_analytic(), test_usage(), 0.5, CorrelationMode::kAnalytic);
  const auto& chars = mini_chars_analytic();
  const auto usage = test_usage();
  double avg_cell_var = 0.0;
  for (std::size_t ci = 0; ci < chars.size(); ++ci) {
    if (usage.alphas[ci] == 0.0) continue;
    const auto sp = chars.state_probabilities(ci, 0.5);
    const auto eff = chars.effective(ci, sp);
    avg_cell_var += usage.alphas[ci] * eff.sigma_na * eff.sigma_na;
  }
  EXPECT_GT(rg.variance_na2(), avg_cell_var);
}

TEST(RandomGate, CovarianceAtZeroOffsetIsVariance) {
  const RandomGate rg(mini_chars_analytic(), test_usage(), 0.5, CorrelationMode::kAnalytic);
  EXPECT_DOUBLE_EQ(rg.covariance_at_offset(0.0, 0.0), rg.variance_na2());
}

TEST(RandomGate, CovarianceDecreasesWithDistance) {
  const RandomGate rg(mini_chars_analytic(), test_usage(), 0.5, CorrelationMode::kAnalytic);
  double prev = rg.covariance_at_offset(1.0, 0.0);
  for (double d = 100.0; d <= 1.0e5; d *= 2.0) {
    const double c = rg.covariance_at_offset(d, 0.0);
    EXPECT_LE(c, prev + 1e-9);
    EXPECT_GT(c, 0.0);
    prev = c;
  }
}

TEST(RandomGate, CovarianceFloorsAtD2dLevel) {
  const RandomGate rg(mini_chars_analytic(), test_usage(), 0.5, CorrelationMode::kAnalytic);
  // Beyond the WID range only the D2D part of the length correlation is left.
  const double far = rg.covariance_at_offset(1.0e9, 0.0);
  EXPECT_NEAR(far, rg.covariance_floor_na2(), 1e-4 * rg.covariance_floor_na2());
  EXPECT_GT(rg.covariance_floor_na2(), 0.0);
  EXPECT_LT(rg.covariance_floor_na2(), rg.variance_na2());
}

TEST(RandomGate, SimplifiedModeWorksWithoutModels) {
  const RandomGate rg(mini_chars_mc(), test_usage(), 0.5, CorrelationMode::kSimplified);
  EXPECT_GT(rg.mean_na(), 0.0);
  EXPECT_GT(rg.variance_na2(), 0.0);
  EXPECT_GT(rg.covariance_at_offset(100.0, 0.0), 0.0);
}

TEST(RandomGate, AnalyticModeRejectsMcLibrary) {
  EXPECT_THROW(RandomGate(mini_chars_mc(), test_usage(), 0.5, CorrelationMode::kAnalytic),
               ContractViolation);
}

TEST(RandomGate, SimplifiedCloseToAnalytic) {
  // Section 3.1.2: the simplification costs only a few percent.
  const RandomGate a(mini_chars_analytic(), test_usage(), 0.5, CorrelationMode::kAnalytic);
  const RandomGate s(mini_chars_analytic(), test_usage(), 0.5, CorrelationMode::kSimplified);
  EXPECT_NEAR(a.mean_na(), s.mean_na(), 1e-9 * a.mean_na());
  for (double d : {1e3, 1e4, 5e4}) {
    EXPECT_NEAR(s.covariance_at_offset(d, 0.0), a.covariance_at_offset(d, 0.0),
                0.1 * a.covariance_at_offset(d, 0.0));
  }
}

TEST(RandomGate, SignalProbabilityShiftsStatistics) {
  const RandomGate lo(mini_chars_analytic(), test_usage(), 0.1, CorrelationMode::kAnalytic);
  const RandomGate hi(mini_chars_analytic(), test_usage(), 0.9, CorrelationMode::kAnalytic);
  EXPECT_NE(lo.mean_na(), hi.mean_na());
}

TEST(RandomGate, RejectsInvalidInputs) {
  netlist::UsageHistogram bad;
  bad.alphas.assign(mini_library().size(), 0.0);
  EXPECT_THROW(RandomGate(mini_chars_analytic(), bad, 0.5, CorrelationMode::kAnalytic),
               ContractViolation);
}

}  // namespace
}  // namespace rgleak::core
