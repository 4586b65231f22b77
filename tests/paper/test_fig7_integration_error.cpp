// Figure 7 as a gate: the constant-time integral estimate (eqs. 25/26) against
// the exact O(n) distance-histogram sum (eq. 17) over the gate counts of
// bench_fig7_integration_error, at the paper's own bounds: the site
// granularity costs more than 1% below ~100 gates, at most 1% from ~100,
// under 0.1% from 1,024 and under 0.01% above 10^4 gates.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "cells/library.h"
#include "charlib/characterize.h"
#include "core/estimators.h"
#include "placement/placement.h"

namespace rgleak {
namespace {

// The benchmark corner: L = 40 +/- 2.5 nm total with an even D2D/WID split
// and an exponential WID correlation of 0.1 mm.
process::ProcessVariation fig7_process() {
  process::LengthVariation len;
  len.mean_nm = 40.0;
  len.sigma_d2d_nm = len.sigma_wid_nm = std::sqrt(2.5 * 2.5 * 0.5);
  process::VtVariation vt;
  vt.sigma_v = 0.02;
  return process::ProcessVariation(len, vt,
                                   std::make_shared<process::ExponentialCorrelation>(1.0e5));
}

TEST(PaperFig7, IntegralErrorShrinksWithGateCount) {
  const cells::StdCellLibrary lib = cells::build_virtual90_library();
  const charlib::CharacterizedLibrary chars = charlib::characterize_analytic(lib, fig7_process());
  netlist::UsageHistogram usage;
  usage.alphas.assign(lib.size(), 0.0);
  usage.alphas[lib.index_of("INV_X1")] = 0.4;
  usage.alphas[lib.index_of("NAND2_X1")] = 0.4;
  usage.alphas[lib.index_of("NOR2_X1")] = 0.2;
  const core::RandomGate rg(chars, usage, 0.5, core::CorrelationMode::kAnalytic);

  for (std::size_t side : {3u, 5u, 10u, 18u, 32u, 56u, 100u, 178u, 316u, 562u, 1000u}) {
    placement::Floorplan fp;
    fp.rows = fp.cols = side;
    fp.site_w_nm = fp.site_h_nm = 1500.0;
    const double lin = core::estimate_linear(rg, fp).sigma_na;
    const double integral = core::estimate_integral_polar(rg, fp).sigma_na;
    const double err_pct = 100.0 * std::abs(integral - lin) / lin;
    const std::size_t n = side * side;
    if (n < 100) {
      EXPECT_GT(err_pct, 1.0) << n << " gates";
    } else {
      EXPECT_LE(err_pct, 1.0) << n << " gates";
    }
    if (n >= 1024) {
      EXPECT_LT(err_pct, 0.1) << n << " gates";
    }
    if (n > 10000) {  // 10^4 itself measures 0.013%
      EXPECT_LT(err_pct, 0.01) << n << " gates";
    }
  }
}

}  // namespace
}  // namespace rgleak
