// Figure 7: % error between the constant-time numerical-integration estimate
// (eq. 20, evaluated as the 1-D polar integral of eqs. 25/26) and the exact
// linear-time distance-histogram sum (eq. 17), as a function of gate count.
//
// Paper reference: > 1% below ~100 gates (site granularity), < 0.1% for
// large designs, < 0.01% above ten thousand gates.

#include <chrono>
#include <iostream>

#include "bench_util.h"
#include "core/estimators.h"
#include "placement/placement.h"
#include "util/table.h"

int main() {
  using namespace rgleak;
  using clock = std::chrono::steady_clock;
  bench::banner("Integration error vs gate count", "Figure 7");

  const auto& lib = bench::library();
  const auto& chars = bench::chars_analytic();

  netlist::UsageHistogram usage;
  usage.alphas.assign(lib.size(), 0.0);
  usage.alphas[lib.index_of("INV_X1")] = 0.4;
  usage.alphas[lib.index_of("NAND2_X1")] = 0.4;
  usage.alphas[lib.index_of("NOR2_X1")] = 0.2;
  const core::RandomGate rg(chars, usage, 0.5, core::CorrelationMode::kAnalytic);

  util::Table t({"n", "sigma O(n) (uA)", "sigma O(1) integral (uA)", "error %",
                 "t_linear (ms)", "t_integral (ms)"});
  for (std::size_t side : {3u, 5u, 10u, 18u, 32u, 56u, 100u, 178u, 316u, 562u, 1000u}) {
    const std::size_t n = side * side;
    placement::Floorplan fp;
    fp.rows = fp.cols = side;
    fp.site_w_nm = fp.site_h_nm = 1500.0;

    const auto t0 = clock::now();
    const core::LeakageEstimate lin = core::estimate_linear(rg, fp);
    const auto t1 = clock::now();
    const core::LeakageEstimate integ = core::estimate_integral_polar(rg, fp);
    const auto t2 = clock::now();

    const double err = 100.0 * std::abs(integ.sigma_na - lin.sigma_na) / lin.sigma_na;
    t.row()
        .cell(static_cast<long long>(n))
        .cell(lin.sigma_na * 1e-3, 5)
        .cell(integ.sigma_na * 1e-3, 5)
        .cell(err, 3)
        .cell(std::chrono::duration<double, std::milli>(t1 - t0).count(), 3)
        .cell(std::chrono::duration<double, std::milli>(t2 - t1).count(), 3);
  }
  t.print(std::cout);
  std::cout << "\npaper reference: error > 1% below ~100 gates, < 0.1% for large designs,\n"
               "                 < 0.01% above 10^4 gates; integral cost is O(1) while the\n"
               "                 linear method grows with n\n";
  return 0;
}
