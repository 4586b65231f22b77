#pragma once
// Top-level facade: the block diagram of Fig. 1. Given the process, the
// characterized library, and the high-level design characteristics —
// (expected or extracted) usage histogram, gate count, and layout dimensions
// — produce the full-chip leakage mean and sigma with the configured
// estimator.

#include <cstddef>
#include <optional>
#include <string>

#include "core/estimate.h"
#include "core/estimators.h"
#include "core/planner.h"
#include "core/random_gate.h"
#include "core/signal_probability.h"
#include "util/run_control.h"

namespace rgleak::core {

/// The four high-level characteristics of section 2.2 (the library itself is
/// carried by the CharacterizedLibrary).
struct DesignCharacteristics {
  netlist::UsageHistogram usage;
  std::size_t gate_count = 0;
  double width_nm = 0.0;
  double height_nm = 0.0;
};

/// Which estimator evaluates the RG-array variance.
enum class EstimationMethod {
  kLinear,        ///< eq. (17), O(n)
  kIntegralRect,  ///< eq. (20), O(1)
  kIntegralPolar, ///< eqs (25)/(26), O(1)
  kAuto,          ///< linear below 10k gates, polar above (paper's suggestion)
};

/// The method a user names: "auto", "linear", "rect" or "polar". Throws
/// ConfigError on any other name.
EstimationMethod parse_estimation_method(const std::string& name);

struct EstimatorConfig {
  /// Fixed signal probability; ignored when maximize_signal_probability.
  double signal_probability = 0.5;
  /// Use the conservative max-mean setting of section 2.1.4.
  bool maximize_signal_probability = true;
  CorrelationMode correlation_mode = CorrelationMode::kAnalytic;
  EstimationMethod method = EstimationMethod::kAuto;
  /// Apply the random-Vt multiplicative mean correction.
  bool apply_vt_mean_factor = true;
  /// Wall-clock budget for one estimate() call, seconds; 0 = unlimited. With
  /// a budget set, the estimator walks the accuracy ladder downward
  /// (linear, eq. 17 → integral, eqs. 20/25) whenever `planner` predicts
  /// the requested rung would blow the budget — and a mispredicted rung is
  /// cancelled by the armed deadline and answered by the next one. The
  /// result records the rung that answered and why it degraded.
  double time_budget_s = 0.0;
  /// Predicts each rung's cost and holds the memory budget (Planner::walk);
  /// Planner::from_bench_json pins its predictions to the host.
  Planner planner;
  /// External stop source (SIGINT handler, batch watchdog): polled by the
  /// linear rung, and linked as the parent of the budgeted path's internal
  /// deadline, so an outer cancellation stops an estimate mid-rung.
  const util::RunControl* run = nullptr;
};

/// Builds the k x m RG floorplan matching a design's gate count and layout
/// dimensions (rows/cols chosen so sites tile W x H and rows*cols >= n, as
/// close to n as possible).
placement::Floorplan floorplan_for_design(const DesignCharacteristics& design);

class LeakageEstimator {
 public:
  LeakageEstimator(const charlib::CharacterizedLibrary& chars, EstimatorConfig config = {});

  /// Full-chip mean/sigma for a candidate design (early or late mode).
  LeakageEstimate estimate(const DesignCharacteristics& design) const;

  /// The RG constructed for a design (exposed for validation/benchmarks).
  RandomGate make_random_gate(const netlist::UsageHistogram& usage) const;

  /// Signal probability that would be used for this usage distribution.
  double resolve_signal_probability(const netlist::UsageHistogram& usage) const;

  const EstimatorConfig& config() const { return config_; }

 private:
  const charlib::CharacterizedLibrary* chars_;
  EstimatorConfig config_;
};

/// Entry method of retry attempt `degrade` for a facade request: the
/// Planner::retry_rung below linear, the facade's most expensive rung (so
/// every retry answers from the O(1) integral).
EstimationMethod retry_method(EstimationMethod requested, int degrade);

/// The ladder rung an exact request runs at on `sites` sites ("exact_fft" or
/// "exact_direct"; kAuto resolves as ExactEstimator does).
std::string exact_rung(ExactMethod method, std::size_t sites);

/// Estimate of a *placed* design down the full ladder of the paper
/// (Planner::walk): exact pairwise analysis (eq. 14/15, run with `opts`),
/// distance histogram (eq. 17), integral forms (eqs. 20/25). The walk enters
/// at `rung`, by default the exact rung `opts` asks for; `budget_s` is its
/// time budget (<= 0: none) and `parent` an external stop linked to the
/// walk's deadline (SIGINT, a batch watchdog). The result names the rung
/// that answered and the degradation trail.
LeakageEstimate estimate_placed(const ExactEstimator& exact, const RandomGate& rg,
                                const placement::Placement& placement, double budget_s,
                                const Planner& planner, ExactOptions opts = {},
                                const util::RunControl* parent = nullptr, std::string rung = {});

}  // namespace rgleak::core
