// The bracketed network solver against the original bisection solver, kept as
// a test-only oracle (legacy_network_oracle.h). Every stage of every
// (cell, state) of the virtual 90 nm library must agree to 1e-12 relative.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "cells/library.h"
#include "core/corner_analysis.h"
#include "device/legacy_network_oracle.h"
#include "test_util.h"

namespace rgleak::device {
namespace {

constexpr double kTol = 1e-12;

struct Worst {
  double rel = 0.0;
  std::string where;
};

// Compares every stage current and the cell total of one (cell, state, L).
void compare(const cells::Cell& cell, std::uint32_t state, double l_nm,
             const TechnologyParams& tech, const std::string& corner, Worst& worst) {
  const std::vector<double> fast =
      legacy::stage_currents(cell, state, l_nm, tech, &device::network_current);
  const std::vector<double> slow =
      legacy::stage_currents(cell, state, l_nm, tech, &legacy::network_current);
  ASSERT_EQ(fast.size(), slow.size());
  double total = 0.0;
  for (std::size_t k = 0; k < fast.size(); ++k) {
    total += slow[k];
    const double rel = std::abs(fast[k] - slow[k]) / slow[k];
    const std::string where = corner + " " + cell.name() + "/" + std::to_string(state) +
                              " stage " + std::to_string(k) + " L=" + std::to_string(l_nm);
    EXPECT_LE(rel, kTol) << where << ": fast " << fast[k] << " legacy " << slow[k];
    if (rel > worst.rel) worst = {rel, where};
  }
  const double cell_total = cell.leakage_na(state, l_nm, tech);
  EXPECT_LE(std::abs(cell_total - total), kTol * total) << cell.name() << "/" << state;
}

struct Corner {
  std::string name;
  TechnologyParams tech;
  double mu_nm;
};

std::vector<Corner> oracle_corners() {
  const process::ProcessVariation proc = rgleak::testing::test_process();
  std::vector<Corner> out;
  for (const core::ProcessCorner& c : core::standard_corners(proc.length().sigma_d2d_nm)) {
    if (c.name != "TT/25C" && c.name != "SS/110C") continue;
    out.push_back({c.name, at_temperature(TechnologyParams{}, c.temperature_c + 273.15),
                   proc.length().mean_nm + c.delta_l_nm});
  }
  return out;
}

TEST(LegacyOracle, AllStatesAtCornersAndThreeSigma) {
  const double sigma = rgleak::testing::test_process().length().sigma_total_nm();
  const std::vector<Corner> corners = oracle_corners();
  ASSERT_EQ(corners.size(), 2u);
  Worst worst;
  std::size_t states = 0;
  for (const Corner& c : corners) {
    const cells::StdCellLibrary lib = cells::build_virtual90_library(c.tech);
    for (const cells::Cell& cell : lib.cells()) {
      for (std::uint32_t s = 0; s < cell.num_states(); ++s) {
        for (const double k : {-3.0, 0.0, 3.0})
          compare(cell, s, c.mu_nm + k * sigma, c.tech, c.name, worst);
        ++states;
      }
    }
  }
  EXPECT_EQ(states, 2u * 590u);
  RecordProperty("worst_rel", std::to_string(worst.rel));
  std::printf("legacy oracle: %zu (corner, state) pairs x 3 lengths, worst rel %.3g at %s\n",
              states, worst.rel, worst.where.c_str());
}

// Two-stacks whose ON device sits next to a rail: the node voltage is within
// a few ulps of the rail, so an exact root drifts from the legacy answer by up
// to ~1e-3 (NOR2_X1/1). Every fit length of the analytic characterizer.
TEST(LegacyOracle, OnAtRailTwoStacksAtEveryFitLength) {
  const process::ProcessVariation proc = rgleak::testing::test_process();
  const double mu = proc.length().mean_nm;
  const double sigma = proc.length().sigma_total_nm();
  const charlib::AnalyticCharOptions opts;
  const double lo = std::max(mu - opts.fit_span_sigma * sigma, 1.0);
  const double hi = mu + opts.fit_span_sigma * sigma;
  Worst worst;
  for (const Corner& c : oracle_corners()) {
    const cells::StdCellLibrary lib = cells::build_virtual90_library(c.tech);
    for (const auto& [name, state] : std::vector<std::pair<std::string, std::uint32_t>>{
             {"NOR2_X1", 1}, {"AOI21_X1", 3}, {"AOI22_X1", 7}, {"MUX2_X1", 7}}) {
      const cells::Cell& cell = lib.cell(lib.index_of(name));
      for (std::size_t i = 0; i < opts.fit_points; ++i) {
        const double l = lo + (hi - lo) * static_cast<double>(i) /
                                  static_cast<double>(opts.fit_points - 1);
        compare(cell, state, l, c.tech, c.name, worst);
      }
    }
  }
  std::printf("legacy oracle (ON-at-rail two-stacks): worst rel %.3g at %s\n", worst.rel,
              worst.where.c_str());
}

}  // namespace
}  // namespace rgleak::device
