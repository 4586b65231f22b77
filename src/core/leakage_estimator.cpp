#include "core/leakage_estimator.h"

#include <cmath>

#include "util/require.h"

namespace rgleak::core {

namespace {

// The rung a facade method enters the ladder at; kAuto enters at most at
// linear.
const char* rung_name(EstimationMethod m) {
  switch (m) {
    case EstimationMethod::kIntegralRect: return "integral_rect";
    case EstimationMethod::kIntegralPolar: return "integral_polar";
    case EstimationMethod::kLinear:
    case EstimationMethod::kAuto: break;
  }
  return "linear";
}

// Runs one of the rungs that need no placement.
LeakageEstimate estimate_unplaced(const std::string& rung, const RandomGate& rg,
                                  const placement::Floorplan& fp, const util::RunControl* run) {
  if (rung == "linear") return estimate_linear(rg, fp, run);
  if (rung == "integral_rect") return estimate_integral_rect(rg, fp);
  return estimate_integral_polar(rg, fp);
}

}  // namespace

EstimationMethod parse_estimation_method(const std::string& name) {
  if (name == "auto") return EstimationMethod::kAuto;
  if (name == "linear") return EstimationMethod::kLinear;
  if (name == "rect") return EstimationMethod::kIntegralRect;
  if (name == "polar") return EstimationMethod::kIntegralPolar;
  throw ConfigError("unknown method: " + name);
}

placement::Floorplan floorplan_for_design(const DesignCharacteristics& design) {
  RGLEAK_REQUIRE(design.gate_count >= 1, "design needs at least one gate");
  RGLEAK_REQUIRE(design.width_nm > 0.0 && design.height_nm > 0.0,
                 "design needs positive layout dimensions");
  const double n = static_cast<double>(design.gate_count);
  const double aspect = design.height_nm / design.width_nm;
  placement::Floorplan fp;
  fp.rows = static_cast<std::size_t>(std::max(1.0, std::round(std::sqrt(n * aspect))));
  fp.cols = (design.gate_count + fp.rows - 1) / fp.rows;
  fp.site_w_nm = design.width_nm / static_cast<double>(fp.cols);
  fp.site_h_nm = design.height_nm / static_cast<double>(fp.rows);
  return fp;
}

LeakageEstimator::LeakageEstimator(const charlib::CharacterizedLibrary& chars,
                                   EstimatorConfig config)
    : chars_(&chars), config_(config) {
  RGLEAK_REQUIRE(config_.signal_probability >= 0.0 && config_.signal_probability <= 1.0,
                 "signal probability must be in [0, 1]");
}

double LeakageEstimator::resolve_signal_probability(const netlist::UsageHistogram& usage) const {
  if (config_.maximize_signal_probability)
    return max_leakage_signal_probability(*chars_, usage);
  return config_.signal_probability;
}

RandomGate LeakageEstimator::make_random_gate(const netlist::UsageHistogram& usage) const {
  return RandomGate(*chars_, usage, resolve_signal_probability(usage),
                    config_.correlation_mode);
}

LeakageEstimate LeakageEstimator::estimate(const DesignCharacteristics& design) const {
  const placement::Floorplan fp = floorplan_for_design(design);
  const RandomGate rg = make_random_gate(design.usage);

  EstimationMethod method = config_.method;
  if (method == EstimationMethod::kAuto)
    method = design.gate_count <= 10000 ? EstimationMethod::kLinear
                                        : EstimationMethod::kIntegralPolar;

  LeakageEstimate e = config_.planner.walk(
      rung_name(method), fp.num_sites(), config_.time_budget_s, config_.run,
      [&](const std::string& rung, const util::RunControl* run) {
        return estimate_unplaced(rung, rg, fp, run);
      });
  if (config_.apply_vt_mean_factor)
    e.mean_na *= vt_mean_factor(chars_->process().vt(), chars_->library().tech());
  return e;
}

EstimationMethod retry_method(EstimationMethod requested, int degrade) {
  if (degrade <= 0) return requested;
  return Planner::retry_rung("linear", rung_name(requested), degrade) == "linear"
             ? EstimationMethod::kLinear
             : EstimationMethod::kIntegralPolar;
}

std::string exact_rung(ExactMethod method, std::size_t sites) {
  return resolve_exact_method(method, sites) == ExactMethod::kFft ? "exact_fft" : "exact_direct";
}

LeakageEstimate estimate_placed(const ExactEstimator& exact, const RandomGate& rg,
                                const placement::Placement& placement, double budget_s,
                                const Planner& planner, ExactOptions opts,
                                const util::RunControl* parent, std::string rung) {
  const placement::Floorplan& fp = placement.floorplan();
  if (rung.empty()) rung = exact_rung(opts.method, fp.num_sites());
  return planner.walk(rung, fp.num_sites(), budget_s, parent,
                      [&](const std::string& r, const util::RunControl* run) {
                        if (r != "exact_fft" && r != "exact_direct")
                          return estimate_unplaced(r, rg, fp, run);
                        ExactOptions o = opts;
                        o.method = r == "exact_fft" ? ExactMethod::kFft : ExactMethod::kDirect;
                        o.run = run;
                        return exact.estimate(placement, o);
                      });
}

}  // namespace rgleak::core
