// corner_signoff: the flow behind `rgleak corners`. For each process/
// temperature corner the library is rebuilt for the corner's technology,
// characterized analytically (paper §2.1.2) and three fixed designs are
// estimated with core::LeakageEstimator. device and charlib do almost all of
// the work; process sampling, mc and service are not called.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cells/library.h"
#include "charlib/characterize.h"
#include "common.h"
#include "core/corner_analysis.h"
#include "core/leakage_estimator.h"
#include "corner_reference.h"
#include "netlist/netlist.h"
#include "util/metrics.h"

namespace rgbench {

namespace {

using namespace rgleak;

struct Design {
  const char* name;
  std::vector<std::pair<std::string, std::size_t>> usage;  // cell, weight
  std::size_t gates;
  double die_um;  // square die edge
};

// Fixed designs: their per-corner estimates are checked against the
// reference recorded in corner_reference.h, so they must not depend on the
// seed. They span both rungs LeakageEstimator picks (linear at <= 10k gates,
// polar above) and a narrow and a broad usage histogram.
const std::vector<Design>& designs() {
  static const std::vector<Design> d = {
      {"ctrl_8k", {{"INV_X1", 4}, {"NAND2_X1", 4}, {"NOR2_X1", 2}}, 8000, 134.0},
      {"soc_100k",
       {{"NAND2_X1", 30}, {"NOR2_X1", 15}, {"INV_X1", 25}, {"DFF_X1", 20}, {"AOI21_X1", 10}},
       100000,
       474.0},
      {"dsp_1m",
       {{"INV_X2", 10}, {"NAND2_X2", 15}, {"NAND3_X1", 10}, {"NOR3_X1", 5}, {"XOR2_X1", 10},
        {"FA_X1", 10}, {"MUX2_X1", 10}, {"OAI21_X1", 10}, {"DFF_X1", 15}, {"SRAM6T", 5}},
       1000000,
       1500.0},
  };
  return d;
}

core::DesignCharacteristics to_design(const cells::StdCellLibrary& lib, const Design& d) {
  core::DesignCharacteristics out;
  out.usage = netlist::usage_from_counts(lib, d.usage);
  out.gate_count = d.gates;
  out.width_nm = d.die_um * 1000.0;
  out.height_nm = d.die_um * 1000.0;
  return out;
}

// Gauss-Hermite nodes and weights for the weight exp(-x^2) (Golub-Welsch
// free Newton iteration on the orthonormal Hermite recurrence).
void gauss_hermite(int n, std::vector<double>& x, std::vector<double>& w) {
  x.assign(static_cast<std::size_t>(n), 0.0);
  w.assign(static_cast<std::size_t>(n), 0.0);
  const double pim4 = 0.7511255444649425;  // pi^(-1/4)
  double z = 0.0, pp = 0.0;
  for (int i = 0; i < (n + 1) / 2; ++i) {
    if (i == 0) z = std::sqrt(2.0 * n + 1) - 1.85575 * std::pow(2.0 * n + 1, -0.16667);
    else if (i == 1) z -= 1.14 * std::pow(n, 0.426) / z;
    else if (i == 2) z = 1.86 * z - 0.86 * x[0];
    else if (i == 3) z = 1.91 * z - 0.91 * x[1];
    else z = 2.0 * z - x[static_cast<std::size_t>(i - 2)];
    for (int it = 0; it < 100; ++it) {
      double p1 = pim4, p2 = 0.0;
      for (int j = 0; j < n; ++j) {
        const double p3 = p2;
        p2 = p1;
        p1 = z * std::sqrt(2.0 / (j + 1)) * p2 - std::sqrt(static_cast<double>(j) / (j + 1)) * p3;
      }
      pp = std::sqrt(2.0 * n) * p2;
      const double z1 = z;
      z = z1 - p1 / pp;
      if (std::abs(z - z1) <= 1e-14) break;
    }
    x[static_cast<std::size_t>(i)] = z;
    x[static_cast<std::size_t>(n - 1 - i)] = -z;
    w[static_cast<std::size_t>(i)] = w[static_cast<std::size_t>(n - 1 - i)] = 2.0 / (pp * pp);
  }
}

struct CornerRun {
  core::ProcessCorner corner;
  double wall_ms = 0.0;
  double characterize_ms = 0.0;
  double estimate_ms = 0.0;
  std::vector<core::LeakageEstimate> estimates;  // one per design
  // Kept for the output checks of the first corner only.
  std::unique_ptr<cells::StdCellLibrary> lib;
  std::unique_ptr<charlib::CharacterizedLibrary> chars;
};

process::ProcessVariation corner_process(const process::ProcessVariation& base,
                                         const core::ProcessCorner& corner) {
  process::LengthVariation len = base.length();
  len.mean_nm += corner.delta_l_nm;
  return process::ProcessVariation(len, base.vt(), base.wid_correlation_ptr(),
                                   base.anisotropy());
}

CornerRun run_corner(const core::ProcessCorner& corner, const process::ProcessVariation& base,
                     Tracer& tracer, bool keep) {
  CornerRun r;
  r.corner = corner;
  const double t0 = now_s();
  const device::TechnologyParams tech =
      device::at_temperature(device::TechnologyParams{}, corner.temperature_c + 273.15);
  auto lib = [&] {
    Span s(tracer, "cells.build");
    return std::make_unique<cells::StdCellLibrary>(cells::build_virtual90_library(tech));
  }();
  const process::ProcessVariation proc = corner_process(base, corner);
  const double tc = now_s();
  auto chars = [&] {
    Span s(tracer, "charlib.characterize");
    return std::make_unique<charlib::CharacterizedLibrary>(
        charlib::characterize_analytic(*lib, proc));
  }();
  const double te = now_s();
  const core::LeakageEstimator estimator(*chars);
  for (const Design& d : designs()) {
    Span s(tracer, "core.estimate");
    r.estimates.push_back(estimator.estimate(to_design(*lib, d)));
  }
  const double t1 = now_s();
  r.wall_ms = (t1 - t0) * 1e3;
  r.characterize_ms = (te - tc) * 1e3;
  r.estimate_ms = (t1 - te) * 1e3;
  if (keep) {
    r.lib = std::move(lib);
    r.chars = std::move(chars);
  }
  return r;
}

// Every analytic per-state mean against a Gauss-Hermite quadrature of the
// device-level leakage over L ~ N(mu, sigma_total): the paper's 2% (§2.1.2).
void check_quadrature(const Args& args, const CornerRun& run, Report& report) {
  std::vector<double> x, w;
  gauss_hermite(6, x, w);
  const process::ProcessVariation& proc = run.chars->process();
  const double mu = proc.length().mean_nm;
  const double sigma = proc.length().sigma_total_nm();
  const double bump = perturbation(args, "corner_quadrature", 0.03);
  double worst = 0.0;
  std::string worst_state;
  std::size_t states = 0;
  for (std::size_t ci = 0; ci < run.lib->size(); ++ci) {
    const cells::Cell& cell = run.lib->cell(ci);
    for (std::uint32_t s = 0; s < cell.num_states(); ++s) {
      double gh = 0.0;
      for (std::size_t k = 0; k < x.size(); ++k)
        gh += w[k] * cell.leakage_na(s, mu + std::sqrt(2.0) * sigma * x[k], run.lib->tech());
      gh /= std::sqrt(M_PI);
      const double analytic = run.chars->cell(ci).states[s].mean_na * (states == 0 ? bump : 1.0);
      const double err = rel_diff(analytic, gh);
      if (err > worst) {
        worst = err;
        worst_state = cell.name() + "/" + std::to_string(s);
      }
      ++states;
    }
  }
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: %zu states, worst %.3f%% (%s), bound 2%%",
                run.corner.name.c_str(), states, worst * 100.0, worst_state.c_str());
  report.check("corner_quadrature", worst <= 0.02, buf);
  report.info("quadrature_worst_rel", worst);
}

void check_reference(const Args& args, const std::vector<CornerRun>& runs, Report& report) {
  constexpr double kTol = 1e-6;
  const double bump = perturbation(args, "corner_reference", 1e-3);
  double worst = 0.0;
  std::size_t compared = 0, missing = 0;
  for (const CornerRun& r : runs) {
    for (std::size_t d = 0; d < designs().size(); ++d) {
      const CornerReference* ref = find_corner_reference(r.corner.name, designs()[d].name);
      if (ref == nullptr) {
        // Printed in corner_reference.h's row format, for re-recording.
        std::fprintf(stderr, "rgbench: no reference for {\"%s\", \"%s\", %.17g, %.17g},\n",
                     r.corner.name.c_str(), designs()[d].name, r.estimates[d].mean_na,
                     r.estimates[d].sigma_na);
        ++missing;
        continue;
      }
      const double m = r.estimates[d].mean_na * (compared == 0 ? bump : 1.0);
      worst = std::max({worst, rel_diff(m, ref->mean_na),
                        rel_diff(r.estimates[d].sigma_na, ref->sigma_na)});
      ++compared;
    }
  }
  char buf[160];
  std::snprintf(buf, sizeof buf, "%zu estimates, %zu without reference, worst rel %.3g, tol %.0e",
                compared, missing, worst, kTol);
  report.check("corner_reference", missing == 0 && compared > 0 && worst <= kTol, buf);
}

}  // namespace

int run_corner_signoff(const Args& args, Tracer& tracer, Report& report) {
  const process::ProcessVariation base = bench_process();

  // Set-up, repeated: nominal library, characterization, designs, and one
  // warm-up estimate per design.
  std::vector<double> setup_s;
  for (int rep = 0; rep < (args.small ? 1 : 3); ++rep) {
    const double t0 = now_s();
    const cells::StdCellLibrary lib = [&] {
      Span s(tracer, "cells.build");
      return cells::build_virtual90_library();
    }();
    const charlib::CharacterizedLibrary chars = [&] {
      Span s(tracer, "charlib.characterize");
      return charlib::characterize_analytic(lib, base);
    }();
    const core::LeakageEstimator estimator(chars);
    for (const Design& d : designs()) {
      Span s(tracer, "core.estimate");
      estimator.estimate(to_design(lib, d));
    }
    setup_s.push_back(now_s() - t0);
  }

  const std::vector<core::ProcessCorner> corners =
      core::standard_corners(base.length().sigma_d2d_nm);
  const std::size_t first = static_cast<std::size_t>(args.seed % corners.size());
  std::vector<CornerRun> runs;

  // In a traced run the first half of the window runs untraced; the
  // difference to the traced half is the tracing overhead.
  const bool traced = tracer.on();
  std::vector<double> untraced_ms;
  const double t_start = now_s();
  if (traced) {
    Tracer off(false);
    while (untraced_ms.empty() || now_s() - t_start < args.seconds / 2) {
      const auto& c = corners[(first + runs.size() + untraced_ms.size()) % corners.size()];
      untraced_ms.push_back(run_corner(c, base, off, false).wall_ms);
    }
  }
  auto& registry = util::metrics::Registry::instance();
  const util::metrics::Snapshot before = registry.snapshot();
  const double t_measure = now_s();
  while (runs.empty() || now_s() - t_start < args.seconds) {
    const auto& c = corners[(first + runs.size() + untraced_ms.size()) % corners.size()];
    runs.push_back(run_corner(c, base, tracer, runs.empty()));
  }
  const double measure_s = now_s() - t_measure;
  const util::metrics::Snapshot after = registry.snapshot();

  std::vector<double> corner_ms, char_share, estimate_ms;
  for (const CornerRun& r : runs) {
    corner_ms.push_back(r.wall_ms);
    char_share.push_back(r.characterize_ms / r.wall_ms);
    estimate_ms.push_back(r.estimate_ms);
  }
  report.add_attempted(runs.size() + untraced_ms.size());
  report.metric("setup_s", median(setup_s), "s");
  report.metric("ops_per_s", static_cast<double>(runs.size()) / measure_s, "1/s");
  report.metric("op_ms_p50", median(corner_ms), "ms");
  report.metric("op_ms_p95", quantile(corner_ms, 0.95), "ms");
  report.info("corners", static_cast<double>(runs.size()));
  std::string per_corner;
  for (const CornerRun& r : runs)
    per_corner += (per_corner.empty() ? "" : " ") + r.corner.name + "=" +
                  std::to_string(static_cast<long>(r.wall_ms)) + "ms";
  report.info("corner_ms", per_corner);
  report.info("first_corner", runs.front().corner.name);

  check_reference(args, runs, report);
  check_quadrature(args, runs.front(), report);

  if (traced) {
    // Per-call costs of the characterizer's two inner layers over its whole
    // (cell, state, L) grid at the first corner: every fit, and every device
    // solve of the fit's L points. Fit cost varies by orders of magnitude
    // between cells and states (stack depth), so nothing short of the whole
    // grid gives a faithful mean.
    const CornerRun& r = runs.front();
    const charlib::AnalyticCharOptions opts;
    const process::ProcessVariation& proc = r.chars->process();
    const double mu = proc.length().mean_nm;
    const double sigma = proc.length().sigma_total_nm();
    const double lo = std::max(mu - opts.fit_span_sigma * sigma, 1.0);
    const double hi = mu + opts.fit_span_sigma * sigma;
    double states = 0.0, fit_s = 0.0, solve_s = 0.0;
    for (const cells::Cell& cell : r.lib->cells()) {
      for (std::uint32_t s = 0; s < cell.num_states(); ++s) {
        double t0 = now_s();
        {
          Span sp(tracer, "charlib.fit");
          charlib::fit_log_quadratic(cell, s, r.lib->tech(), mu, sigma, opts);
        }
        fit_s += now_s() - t0;
        t0 = now_s();
        {
          Span sp(tracer, "device.solve");
          for (std::size_t i = 0; i < opts.fit_points; ++i)
            cell.leakage_na(s, lo + (hi - lo) * static_cast<double>(i) /
                                        static_cast<double>(opts.fit_points - 1),
                            r.lib->tech());
        }
        solve_s += now_s() - t0;
        states += 1.0;
      }
    }
    const double solves = states * static_cast<double>(opts.fit_points);
    const double solve_us = solve_s / solves * 1e6;
    report.metric("cells.build_ms", median(tracer.durations_ms("cells.build")), "ms");
    report.metric("charlib.characterize_ms", median(tracer.durations_ms("charlib.characterize")),
                  "ms");
    report.metric("charlib.characterize_share", median(char_share), "ratio");
    report.metric("charlib.fit_us", fit_s / states * 1e6, "us");
    report.metric("device.solve_us", solve_us, "us");
    report.metric("device.solves", solves, "count");
    report.metric("device.share", solve_us * 1e-3 * solves / median(corner_ms), "ratio");
    report.metric("core.estimate_ms", median(estimate_ms), "ms");
    report.metric("trace.overhead_pct", (median(corner_ms) / median(untraced_ms) - 1.0) * 100.0,
                  "%");
    // Cross-check: every estimate answers from the linear or the polar rung,
    // which record their own estimator.*_ms histograms inside the
    // benchmark's core.estimate span. A polar call that falls back to the
    // rectangular rung also records integral_rect, nested inside polar.
    const HistDelta linear = hist_delta(before, after, "estimator.linear_ms");
    const HistDelta polar = hist_delta(before, after, "estimator.integral_polar_ms");
    const HistDelta rect = hist_delta(before, after, "estimator.integral_rect_ms");
    const std::size_t estimates = runs.size() * designs().size();
    double span_ms = 0.0;
    for (double v : estimate_ms) span_ms += v;
    const bool agree = linear.count + polar.count == estimates && rect.count <= polar.count &&
                       linear.sum + polar.sum <= span_ms;
    if (!agree)
      std::fprintf(stderr,
                   "rgbench: cross-check: estimator histograms linear %llu polar %llu rect %llu "
                   "calls, %.3f ms; benchmark %zu estimates, %.3f ms\n",
                   static_cast<unsigned long long>(linear.count),
                   static_cast<unsigned long long>(polar.count),
                   static_cast<unsigned long long>(rect.count), linear.sum + polar.sum,
                   estimates, span_ms);
    report.metric("trace.xcheck_disagreements", agree ? 0.0 : 1.0, "count");
  }
  return 0;
}

}  // namespace rgbench
