#pragma once
// The cost planner for the estimator ladder: the exact pairwise sum
// (eqs. 14/15, O(n^2) direct or O(T^2 n log n) by FFT), the distance
// histogram (eq. 17, O(n)) and the integral forms (eqs. 20/25, O(1)). This
// module alone knows the ladder order, each rung's predicted (ms, bytes),
// how a bench JSON record calibrates both, and the format of the
// `degradation` trail. Callers supply a function that runs one named rung;
// walk() decides which rungs run. The engines charge util::MemoryBudget with
// the structural arena formulas below, so admission and the enforcing
// reservations agree by construction.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "core/estimate.h"
#include "util/run_control.h"

namespace rgleak::core {

class Planner {
 public:
  /// Peak bytes one job may occupy; 0 = unlimited (no memory admission).
  std::uint64_t mem_budget_bytes = 0;

  /// Built-in coefficients: deliberately pessimistic, so an uncalibrated
  /// planner degrades too eagerly rather than blow a budget. A calibrated
  /// coefficient is the largest one measured, so a budget decision never
  /// trusts the fastest outlier.
  Planner();

  /// A planner calibrated from a bench JSON record
  /// ({"records": [{"method": ..., "sites": N, ...}, ...]}, as written by
  /// bench_scaling --exact-json and bench_full_chip_mc --mc-json): a record's
  /// "wall_ms" calibrates the time and its "budget_peak_bytes" (else
  /// "peak_rss_kb") the memory prediction of the rung its "method" names.
  /// Throws IoError on an unreadable file, ParseError on a malformed record.
  static Planner from_bench_json(const std::string& path);

  /// Folds one measurement into the rung `method` names. Bench names map onto
  /// rungs ("fft" -> exact_fft, "direct_parallel" -> exact_direct); the
  /// "direct_serial" baseline and unknown names are ignored.
  void calibrate_ms(const std::string& method, std::size_t sites, double wall_ms);
  void calibrate_bytes(const std::string& method, std::size_t sites, std::uint64_t bytes);

  /// Predicted wall time / peak bytes of a rung ("exact_fft", "exact_direct",
  /// "linear", "integral_rect", "integral_polar"; "mc" is one MC worker). The
  /// integral floors and "mc" predict bytes only; their time is +infinity.
  /// Unknown names predict +infinity / UINT64_MAX ("does not fit").
  double predict_ms(const std::string& rung, std::size_t sites) const;
  std::uint64_t predict_bytes(const std::string& rung, std::size_t sites) const;

  /// Runs one rung under `run` and returns its estimate.
  using RungFn =
      std::function<LeakageEstimate(const std::string& rung, const util::RunControl* run)>;

  /// Walks exact_fft -> exact_direct -> linear -> integral_polar down from
  /// `requested` (integral_rect is an off-ladder floor of its own), running
  /// the first rung whose predicted bytes fit `mem_budget_bytes` and whose
  /// predicted time fits what is left of `time_budget_s` (<= 0: no time
  /// budget; the rung runs directly under `parent`). With a time budget a
  /// rung runs under a deadline linked to `parent`: the deadline cancelling
  /// it degrades to the next rung, an external stop propagates. The floor
  /// (integral_polar, or integral_rect when requested) runs unconditionally,
  /// with no time check; a request no rung admits throws ResourceError. The
  /// result's `degradation` lists every step, "; "-joined.
  LeakageEstimate walk(const std::string& requested, std::size_t sites, double time_budget_s,
                       const util::RunControl* parent, const RungFn& run_rung) const;

  /// Entry rung of retry attempt `degrade` (0 = first) for a job kind whose
  /// most expensive rung is `top`: attempt d enters no higher than d steps
  /// below `top` on exact -> linear -> integral_polar (either exact path is
  /// one step), and never above `requested`.
  static std::string retry_rung(const std::string& top, const std::string& requested,
                                int degrade);

  /// Arenas of ExactEstimator::estimate_direct: gate type/row/col tables,
  /// the per-offset rho grid, and the tile partials.
  static std::uint64_t exact_direct_bytes(std::size_t gates, std::size_t rows, std::size_t cols);

  /// Arenas of ExactEstimator::estimate_fft: per-type occupancy grids and
  /// padded forward transforms (padding next_pow2(2n-1) per axis), transform
  /// scratch, the FFT plan, the correlation output, and the rho/cov offset
  /// grids. `types` is the number of distinct cell types placed (pass the
  /// library size for a conservative preflight).
  static std::uint64_t exact_fft_bytes(std::size_t rows, std::size_t cols, std::size_t types);

  /// Per-worker arenas of the MC engine: the worker's field-sampler copy
  /// (eigenvalue table + spare-field cache on the padded grid), FFT
  /// workspace, WID field buffer, and per-gate table ids.
  /// `padded_rows/cols` come from GridFieldSampler::padded_dim (or the
  /// sampler's accessors once built).
  static std::uint64_t mc_worker_bytes(std::size_t padded_rows, std::size_t padded_cols,
                                       std::size_t rows, std::size_t cols, std::size_t gates);

 private:
  enum class Basis { kConstant, kLinear, kNLogN, kQuadratic };
  static double basis_value(Basis basis, std::size_t sites);
  // value ~ coeff * basis(n); a calibrated coefficient (0 until measured)
  // replaces the default one.
  struct Law {
    Basis basis;
    double coeff;
    double calibrated = 0.0;
    double predict(std::size_t n) const {
      return (calibrated > 0.0 ? calibrated : coeff) * basis_value(basis, n);
    }
    void fold(double value, std::size_t n) {
      calibrated = std::max(calibrated, value / basis_value(basis, n));
    }
  };
  struct RungCost {
    const char* name;
    Law ms;
    Law bytes;
  };
  std::array<RungCost, 6> rungs_;

  // Index into rungs_ of a rung / bench method name; rungs_.size() if unknown.
  std::size_t index_of(const std::string& rung) const;
  std::size_t bench_index(const std::string& method) const;
};

/// What memory admission decided for one job.
struct Admission {
  /// Admitted rung — for MC, always "mc".
  std::string method;
  /// Admitted MC worker count (admit_mc only).
  std::size_t threads = 0;
  /// Empty when the job runs as requested; otherwise the walk, e.g.
  /// "mem: exact_fft->linear" or "mem: mc threads 8->2". Journaled.
  std::string degradation;
};

/// Admits an MC run at `sites` sites with `threads` requested workers,
/// halving the worker count until the per-worker prediction times the count
/// fits. Throws ResourceError when one worker does not fit.
Admission admit_mc(const Planner& planner, std::size_t sites, std::size_t threads);

}  // namespace rgleak::core
