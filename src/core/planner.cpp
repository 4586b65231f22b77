#include "core/planner.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <fstream>
#include <limits>
#include <sstream>

#include "math/fft.h"
#include "util/error.h"
#include "util/format.h"

namespace rgleak::core {

namespace {

// The ladder, most expensive first. A walk enters at the requested rung and
// only ever walks down (a cheaper request is never upgraded); the last rung
// is the floor that always answers.
constexpr std::array<const char*, 4> kLadder = {"exact_fft", "exact_direct", "linear",
                                                "integral_polar"};

// The time law of the rungs walk() never times: the integral floors and MC.
constexpr double kUntimed = std::numeric_limits<double>::infinity();

// Position of `rung` on the ladder; kLadder.size() for off-ladder rungs.
std::size_t ladder_position(const std::string& rung) {
  return static_cast<std::size_t>(std::find(kLadder.begin(), kLadder.end(), rung) -
                                  kLadder.begin());
}

std::string human_mb(std::uint64_t bytes) {
  return util::format_double_fixed(static_cast<double>(bytes) / (1024.0 * 1024.0), 1) + " MiB";
}

// ---- the degradation trail format ----

std::string mem_note(const std::string& from, const std::string& to) {
  return "mem: " + from + "->" + to;
}

std::string over_budget_note(const char* rung, double predicted_ms, double remaining_ms) {
  return std::string(rung) + " predicted " + util::format_double_fixed(predicted_ms, 1) +
         " ms > budget " + util::format_double_fixed(remaining_ms, 1) + " ms";
}

std::string cancelled_note(const char* rung) {
  return std::string(rung) + " cancelled at deadline (cost misprediction)";
}

void append_note(std::string* trail, const std::string& next) {
  if (!trail->empty()) *trail += "; ";
  *trail += next;
}

// The value of "key" in one flat bench record object, quotes stripped;
// empty when absent. Not a general JSON parser: the benches write one flat
// object per record.
std::string field(const std::string& obj, const std::string& key) {
  const auto k = obj.find("\"" + key + "\"");
  const auto colon = k == std::string::npos ? k : obj.find(':', k);
  const auto begin =
      colon == std::string::npos ? colon : obj.find_first_not_of(" \t\r\n\"", colon + 1);
  if (begin == std::string::npos) return {};
  return obj.substr(begin, obj.find_first_of(",}\" \t\r\n", begin) - begin);
}

// `text` as a number of magnitude at most 1e18 (so it converts to any
// count); NaN when it is not one.
double number(const std::string& text) {
  double v = 0.0;
  return util::parse_double(text, v) && std::abs(v) <= 1e18 ? v : std::nan("");
}

}  // namespace

Planner::Planner()
    // Coefficients are slow-core magnitudes, rounded up hard. The FFT rung's
    // byte coefficient absorbs the worst-case power-of-two padding (up to ~16x
    // the site count in padded cells) times 16-byte complex cells times a few
    // live buffers; MC likewise carries padded sampler grids per worker.
    : rungs_{{
          {"exact_fft", {Basis::kNLogN, 5e-3}, {Basis::kLinear, 8192.0}},
          {"exact_direct", {Basis::kQuadratic, 5e-5}, {Basis::kLinear, 256.0}},
          {"linear", {Basis::kLinear, 2e-3}, {Basis::kConstant, 64 << 10}},
          {"integral_rect", {Basis::kConstant, kUntimed}, {Basis::kConstant, 32 << 10}},
          {"integral_polar", {Basis::kConstant, kUntimed}, {Basis::kConstant, 32 << 10}},
          {"mc", {Basis::kConstant, kUntimed}, {Basis::kLinear, 4096.0}},
      }} {}

double Planner::basis_value(Basis basis, std::size_t sites) {
  const double n = static_cast<double>(sites);
  switch (basis) {
    case Basis::kConstant: return 1.0;
    case Basis::kLinear: return n;
    case Basis::kNLogN: return n * std::log2(std::max(2.0, n));
    case Basis::kQuadratic: return n * n;
  }
  return 1.0;
}

std::size_t Planner::index_of(const std::string& rung) const {
  std::size_t i = 0;
  while (i < rungs_.size() && rung != rungs_[i].name) ++i;
  return i;
}

std::size_t Planner::bench_index(const std::string& method) const {
  // Bench records name the exact paths by implementation; fold them onto the
  // rung they predict. The serial direct row is a baseline, not a rung.
  if (method == "direct_serial") return rungs_.size();
  return index_of(method == "fft" ? "exact_fft"
                  : method == "direct_parallel" ? "exact_direct" : method);
}

void Planner::calibrate_ms(const std::string& method, std::size_t sites, double wall_ms) {
  const std::size_t i = bench_index(method);
  // The floors and "mc" have no time prediction to calibrate.
  if (i < rungs_.size() && !std::isinf(rungs_[i].ms.coeff) && sites > 0 && wall_ms >= 0.0)
    rungs_[i].ms.fold(wall_ms, sites);
}

void Planner::calibrate_bytes(const std::string& method, std::size_t sites, std::uint64_t bytes) {
  const std::size_t i = bench_index(method);
  if (i < rungs_.size() && sites > 0 && bytes > 0)
    rungs_[i].bytes.fold(static_cast<double>(bytes), sites);
}

double Planner::predict_ms(const std::string& rung, std::size_t sites) const {
  const std::size_t i = index_of(rung);
  return i < rungs_.size() ? rungs_[i].ms.predict(sites) : std::numeric_limits<double>::infinity();
}

std::uint64_t Planner::predict_bytes(const std::string& rung, std::size_t sites) const {
  const std::size_t i = index_of(rung);
  return i < rungs_.size() ? static_cast<std::uint64_t>(rungs_[i].bytes.predict(sites))
                           : std::numeric_limits<std::uint64_t>::max();
}

Planner Planner::from_bench_json(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw IoError("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  if (is.bad()) throw IoError("read failed: " + path);
  const std::string text = buffer.str();

  Planner planner;
  const auto records = text.find("\"records\"");
  if (records == std::string::npos)
    throw ParseError(path, 1, 0, "bench record has no \"records\" array");
  std::size_t pos = records;
  std::size_t parsed = 0;
  while ((pos = text.find('{', pos)) != std::string::npos) {
    const auto close = text.find('}', pos);
    if (close == std::string::npos) throw ParseError(path, 1, 0, "unterminated record object");
    const std::string obj = text.substr(pos, close - pos + 1);
    pos = close + 1;
    const std::string method = field(obj, "method");
    const double sites = number(field(obj, "sites"));
    if (method.empty() || !(sites >= 0.0))
      throw ParseError(path, 1, 0, "record needs \"method\" and a valid \"sites\" field", obj);
    const auto n = static_cast<std::size_t>(sites);
    const double wall_ms = number(field(obj, "wall_ms"));
    const double bytes = number(field(obj, "budget_peak_bytes"));
    const double rss_kb = number(field(obj, "peak_rss_kb"));
    if (wall_ms >= 0.0) planner.calibrate_ms(method, n, wall_ms);
    if (bytes > 0.0)
      planner.calibrate_bytes(method, n, static_cast<std::uint64_t>(bytes));
    else if (rss_kb > 0.0)
      planner.calibrate_bytes(method, n, static_cast<std::uint64_t>(rss_kb) << 10);
    ++parsed;
  }
  if (parsed == 0) throw ParseError(path, 1, 0, "bench record holds no records");
  return planner;
}

LeakageEstimate Planner::walk(const std::string& requested, std::size_t sites,
                              double time_budget_s, const util::RunControl* parent,
                              const RungFn& run_rung) const {
  const bool timed = time_budget_s > 0.0;
  util::RunControl run;
  run.set_parent(parent);
  if (timed) run.arm_budget(time_budget_s);
  const auto fits_memory = [&](const std::string& rung) {
    return mem_budget_bytes == 0 || predict_bytes(rung, sites) <= mem_budget_bytes;
  };
  std::string trail;
  const char* mem_skipped = nullptr;  // first of a run of rungs skipped for memory
  bool admitted = false;              // some rung fit the memory budget
  for (std::size_t i = ladder_position(requested); i + 1 < kLadder.size(); ++i) {
    const char* rung = kLadder[i];
    if (!fits_memory(rung)) {
      if (mem_skipped == nullptr) mem_skipped = rung;
      continue;
    }
    if (mem_skipped != nullptr) append_note(&trail, mem_note(mem_skipped, rung));
    mem_skipped = nullptr;
    admitted = true;
    const double predicted_ms = predict_ms(rung, sites);
    const double remaining_ms = run.remaining_s() * 1e3;
    if (!timed || predicted_ms <= remaining_ms) {
      try {
        LeakageEstimate e = run_rung(rung, timed ? &run : parent);
        e.degradation = trail;
        return e;
      } catch (const DeadlineExceeded&) {
        // The budget deadline degrades to the next rung; an external stop
        // (SIGINT, a batch shutdown forwarded through the parent link) must
        // propagate — the caller wants out, not a cheaper answer.
        if (!timed || run.reason() == util::StopReason::kCancelled) throw;
        append_note(&trail, cancelled_note(rung));
      }
    } else {
      append_note(&trail, over_budget_note(rung, predicted_ms, remaining_ms));
    }
    // Out of time at an exact rung: go on at linear. The time ladder is
    // exact -> linear -> integral; the other exact path is a memory fallback
    // only.
    i = std::max(i, ladder_position("linear") - 1);
  }

  // The floor: the O(1) integral answers even past the deadline — the caller
  // asked for *an* estimate, and it costs microseconds. An off-ladder request
  // (integral_rect) is its own floor. Only a job no rung admits is rejected.
  const std::string floor =
      ladder_position(requested) < kLadder.size() ? kLadder.back() : requested;
  if (!admitted && !fits_memory(floor))
    throw ResourceError("admission: no estimator rung fits at " + std::to_string(sites) +
                        " sites: floor '" + floor + "' needs " +
                        human_mb(predict_bytes(floor, sites)) + ", over the " +
                        human_mb(mem_budget_bytes) + " memory budget");
  if (mem_skipped != nullptr) append_note(&trail, mem_note(mem_skipped, floor));
  LeakageEstimate e = run_rung(floor, parent);
  e.degradation = trail;
  return e;
}

std::string Planner::retry_rung(const std::string& top, const std::string& requested,
                                int degrade) {
  if (degrade <= 0) return requested;
  // Steps of the retry ladder: either exact path, linear, the integral.
  const auto step = [](const std::string& rung) {
    return rung.rfind("exact_", 0) == 0 ? 0 : rung == "linear" ? 1 : 2;
  };
  return std::max(step(requested), step(top) + degrade) >= 2 ? "integral_polar" : "linear";
}

std::uint64_t Planner::exact_direct_bytes(std::size_t gates, std::size_t rows, std::size_t cols) {
  const std::uint64_t n = gates;
  const std::uint64_t sites = static_cast<std::uint64_t>(rows) * cols;
  const std::uint64_t tiles = (n + 63) / 64;
  // type/row/col index vectors + offset-rho grid + tile partials.
  return 3 * n * sizeof(std::size_t) + sites * sizeof(double) + tiles * sizeof(double);
}

std::uint64_t Planner::exact_fft_bytes(std::size_t rows, std::size_t cols, std::size_t types) {
  const std::uint64_t pad_rows = math::next_pow2(2 * rows - 1);
  const std::uint64_t pad_cols = math::next_pow2(2 * cols - 1);
  const std::uint64_t pad = pad_rows * pad_cols;
  const std::uint64_t sites = static_cast<std::uint64_t>(rows) * cols;
  const std::uint64_t out = static_cast<std::uint64_t>(2 * rows - 1) * (2 * cols - 1);
  const std::uint64_t t = types > 0 ? types : 1;
  // Per type: occupancy grid + retained forward transform. Plus the
  // correlate product grid and the 2-D FFT's column tiles (charged together
  // as two padded complex grids), the correlator's plan twiddles (under one
  // complex value per padded row and column), the correlation output, and
  // the per-offset rho and cov tables.
  return t * (sites * sizeof(double) + pad * sizeof(std::complex<double>)) +
         (2 * pad + pad_rows + pad_cols) * sizeof(std::complex<double>) + out * sizeof(double) +
         2 * sites * sizeof(double);
}

std::uint64_t Planner::mc_worker_bytes(std::size_t padded_rows, std::size_t padded_cols,
                                       std::size_t rows, std::size_t cols, std::size_t gates) {
  const std::uint64_t pad = static_cast<std::uint64_t>(padded_rows) * padded_cols;
  const std::uint64_t sites = static_cast<std::uint64_t>(rows) * cols;
  const std::uint64_t g = gates;
  // Sampler copy: column-major sqrt-eigenvalue table + spare-field cache
  // (the FFT plan is shared between copies and charged once by the owner).
  const std::uint64_t sampler = pad * sizeof(double) + sites * sizeof(double);
  // FieldWorkspace: freq + scratch padded complex buffers.
  const std::uint64_t field_ws = 2 * pad * sizeof(std::complex<double>);
  // McWorkspace: wid field + per-gate table ids.
  const std::uint64_t mc_ws = sites * sizeof(double) + g * sizeof(std::uint32_t);
  return sampler + field_ws + mc_ws;
}

Admission admit_mc(const Planner& planner, std::size_t sites, std::size_t threads) {
  Admission adm;
  adm.method = "mc";
  adm.threads = threads;  // an unlimited budget keeps 0 = hardware concurrency
  const std::uint64_t budget = planner.mem_budget_bytes;
  if (budget == 0) return adm;

  const std::size_t requested = std::max<std::size_t>(threads, 1);
  const std::uint64_t per_worker = planner.predict_bytes("mc", sites);
  adm.threads = requested;
  while (adm.threads > 1 && per_worker * adm.threads > budget) adm.threads /= 2;
  if (per_worker * adm.threads > budget)
    throw ResourceError("admission: mc at " + std::to_string(sites) + " sites needs " +
                        human_mb(per_worker) + " even with a single worker, over the " +
                        human_mb(budget) + " memory budget");
  if (adm.threads != requested)
    adm.degradation = "mem: mc threads " + std::to_string(requested) + "->" +
                      std::to_string(adm.threads);
  return adm;
}

}  // namespace rgleak::core
