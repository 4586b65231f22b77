#include "device/network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "device/root_finding.h"
#include "util/require.h"

namespace rgleak::device {

Network Network::device(NetworkDevice d) {
  Network n;
  n.kind_ = Kind::kDevice;
  n.device_ = d;
  return n;
}

Network Network::series(std::vector<Network> children) {
  RGLEAK_REQUIRE(!children.empty(), "series network needs children");
  if (children.size() == 1) return std::move(children.front());
  Network n;
  n.kind_ = Kind::kSeries;
  // Flatten nested series so the chain solver sees all internal nodes at once.
  for (auto& c : children) {
    if (c.kind_ == Kind::kSeries) {
      for (auto& gc : c.children_) n.children_.push_back(std::move(gc));
    } else {
      n.children_.push_back(std::move(c));
    }
  }
  return n;
}

Network Network::parallel(std::vector<Network> children) {
  RGLEAK_REQUIRE(!children.empty(), "parallel network needs children");
  if (children.size() == 1) return std::move(children.front());
  Network n;
  n.kind_ = Kind::kParallel;
  for (auto& c : children) {
    if (c.kind_ == Kind::kParallel) {
      for (auto& gc : c.children_) n.children_.push_back(std::move(gc));
    } else {
      n.children_.push_back(std::move(c));
    }
  }
  return n;
}

const NetworkDevice& Network::dev() const {
  RGLEAK_REQUIRE(kind_ == Kind::kDevice, "dev() on a composite network");
  return device_;
}

std::size_t Network::device_count() const {
  if (kind_ == Kind::kDevice) return 1;
  std::size_t n = 0;
  for (const auto& c : children_) n += c.device_count();
  return n;
}

void Network::collect_devices(std::vector<const NetworkDevice*>& out) const {
  if (kind_ == Kind::kDevice) {
    out.push_back(&device_);
    return;
  }
  for (const auto& c : children_) c.collect_devices(out);
}


namespace {

using detail::Bracket;
using detail::brent;

// One network_current call: the validated context plus the per-call constants
// of the device model, so the inner loops evaluate devices without checks.
class Solver {
 public:
  explicit Solver(const NetworkEvalContext& ctx)
      : tech_(*ctx.tech),
        vg_(ctx.gate_voltage_v),
        dvt_(ctx.dvt_v),
        l_nm_(ctx.l_nm) {
    const double roll_off = tech_.sce_v0_v * std::exp(-l_nm_ / tech_.sce_l_nm);
    vt_base_n_ = tech_.vt0_n_v - roll_off;
    vt_base_p_ = tech_.vt0_p_v - roll_off;
    n_vt_ = tech_.subthreshold_n * tech_.thermal_vt_v;
  }

  double element(const Network& n, double v_lo, double v_hi) const {
    switch (n.kind()) {
      case Network::Kind::kDevice:
        return device(n.dev(), v_lo, v_hi);
      case Network::Kind::kParallel: {
        double s = 0.0;
        for (const auto& c : n.children()) s += element(c, v_lo, v_hi);
        return s;
      }
      case Network::Kind::kSeries:
        return n.children().size() == 2 ? two_stack(n.children()[0], n.children()[1], v_lo, v_hi)
                                        : chain(n.children(), v_lo, v_hi);
    }
    throw NumericalError("network solve: unreachable network kind");
  }

 private:
  // subthreshold_current() with the length roll-off hoisted; the arithmetic
  // is otherwise the same expression, so results are bit-identical.
  double device(const NetworkDevice& d, double v_lo, double v_hi) const {
    const double vds = v_hi - v_lo;
    if (vds == 0.0) return 0.0;
    const double vg = vg_[static_cast<std::size_t>(d.gate_signal)];
    const double dvt = static_cast<std::size_t>(d.dvt_index) < dvt_.size()
                           ? dvt_[static_cast<std::size_t>(d.dvt_index)]
                           : 0.0;
    const bool nmos = d.type == DeviceType::kNmos;
    // NMOS: source is the low node; PMOS: source is the high node (Vsg).
    const double vgs = nmos ? vg - v_lo : v_hi - vg;
    const double vt_eff = (nmos ? vt_base_n_ : vt_base_p_) - tech_.dibl_eta * vds + dvt;
    const double arg = std::min((vgs - vt_eff) / n_vt_, 40.0);
    const double i0 = tech_.i0_na * (nmos ? 1.0 : tech_.pmos_mobility_ratio);
    return i0 * (d.w_nm / l_nm_) * std::exp(arg) * (1.0 - std::exp(-vds / tech_.thermal_vt_v));
  }

  // Two elements, one internal node. The answer is defined as the original
  // solver's: bisect the node voltage with the predicate
  // "I_below(v) > I_above(v)" (70 steps or a 1e-16 V interval), then report
  // min(I_below, I_above) at the last midpoint. When an ON device sits next to
  // a rail its drop is a few ulps, so that answer carries the quantization of
  // the last midpoint; it is kept bit-for-bit rather than replaced by the exact
  // root. Brent narrows the sign change first, then the bisection is replayed:
  // a midpoint outside the narrowed bracket takes its side without evaluating
  // the (monotone) predicate, so only the last few steps cost a solve.
  double two_stack(const Network& below, const Network& above, double v_lo, double v_hi) const {
    // mismatch(v) > 0 is exactly the bisection's predicate.
    const auto mismatch = [&](double v) {
      return element(below, v_lo, v) - element(above, v, v_hi);
    };
    const double f_lo = -element(above, v_lo, v_hi);
    const double f_hi = element(below, v_lo, v_hi);
    const Bracket root =
        f_hi > 0.0 ? brent(mismatch, {v_lo, v_hi}, f_lo, f_hi, 1e-17, "two-element stack")
                   : Bracket{v_hi, v_hi};  // false everywhere
    double lo = v_lo, hi = v_hi;
    for (int it = 0; it < 70 && hi - lo > 1e-16; ++it) {
      const double v = 0.5 * (lo + hi);
      const bool high = v <= root.lo ? false : v >= root.hi ? true : mismatch(v) > 0.0;
      (high ? hi : lo) = v;
    }
    const double v = 0.5 * (lo + hi);
    return std::min(element(below, v_lo, v), element(above, v, v_hi));
  }

  // Three or more elements: current marching. For a trial current I, walk
  // the chain inward from both rails, inverting each element's monotone I-V
  // curve for the voltage it consumes, up to the weakest element (the one
  // with the least full-swing current); the root-find in ln(I) (stack
  // currents span many decades) pins the I the weakest element carries
  // across the swing the others leave it. Closing on the weakest element
  // keeps the residual smooth near the root: an ON device's current is a
  // near-vertical function of its few-ulp drop. Unlike nodal Gauss-Seidel
  // this has no trouble with near-rigid links (an ON device between OFF
  // devices).
  double chain(const std::vector<Network>& ch, double v_lo, double v_hi) const {
    // No element can carry more than it would with the full swing across it.
    double hi_i = std::numeric_limits<double>::infinity();
    std::size_t weakest = 0;
    for (std::size_t k = 0; k < ch.size(); ++k) {
      const double full = element(ch[k], v_lo, v_hi);
      if (full < hi_i) {
        hi_i = full;
        weakest = k;
      }
    }
    if (hi_i <= 0.0) return 0.0;

    constexpr double kInf = std::numeric_limits<double>::infinity();
    // The voltage above element `e` when it carries `i` up from `v_below`,
    // or the overshoot marker +inf when even the swing up to v_hi cannot
    // carry it.
    const auto up = [&](const Network& e, double v_below, double i) {
      const double full = element(e, v_below, v_hi) - i;
      if (full < 0.0) return kInf;
      if (full == 0.0) return v_hi;
      const Bracket br = brent([&](double v) { return element(e, v_below, v) - i; },
                               {v_below, v_hi}, -i, full, 1e-17, "element inversion");
      return 0.5 * (br.lo + br.hi);
    };
    // The voltage below element `e` when it carries `i` down to it from
    // `v_above`, or the overshoot marker -inf.
    const auto down = [&](const Network& e, double v_above, double i) {
      const double full = element(e, v_lo, v_above) - i;
      if (full < 0.0) return -kInf;
      if (full == 0.0) return v_lo;
      const Bracket br = brent([&](double v) { return i - element(e, v, v_above); },
                               {v_lo, v_above}, -full, i, 1e-17, "element inversion");
      return 0.5 * (br.lo + br.hi);
    };
    // ln(I) minus the log of the current the weakest element carries across
    // the swing left to it: increasing in ln(I), +inf on overshoot.
    const auto excess = [&](double x) {
      const double i = std::exp(x);
      double below = v_lo, above = v_hi;
      for (std::size_t k = 0; k < weakest && below <= v_hi; ++k) below = up(ch[k], below, i);
      for (std::size_t k = ch.size() - 1; k > weakest && above >= v_lo; --k)
        above = down(ch[k], above, i);
      if (!(below < above)) return kInf;
      return x - std::log(element(ch[weakest], below, above));
    };

    // The chain current cannot be more than ~e^53 below the weakest
    // element's full-swing current (ON/OFF ratio bound), so 1e-36 relative
    // is a safe floor.
    const Bracket x{std::log(hi_i * 1e-36), std::log(hi_i)};
    const double f_hi = excess(x.hi);
    if (!(f_hi > 0.0)) return hi_i;
    const double f_lo = excess(x.lo);
    if (f_lo > 0.0) return std::exp(x.lo);
    const Bracket br = brent(excess, x, f_lo, f_hi, 1e-15, "series chain");
    return std::exp(0.5 * (br.lo + br.hi));
  }

  const TechnologyParams& tech_;
  std::span<const double> vg_;
  std::span<const double> dvt_;
  double l_nm_;
  double vt_base_n_ = 0.0, vt_base_p_ = 0.0;
  double n_vt_ = 0.0;
};

void require_finite(std::span<const double> values, const char* name) {
  for (std::size_t i = 0; i < values.size(); ++i)
    RGLEAK_REQUIRE(std::isfinite(values[i]),
                   std::string("network_current: ") + name + "[" + std::to_string(i) +
                       "] is not finite (" + std::to_string(values[i]) + ")");
}

void require_valid(const Network& n, std::size_t signals) {
  if (n.kind() != Network::Kind::kDevice) {
    for (const auto& c : n.children()) require_valid(c, signals);
    return;
  }
  const NetworkDevice& d = n.dev();
  RGLEAK_REQUIRE(d.gate_signal >= 0 && static_cast<std::size_t>(d.gate_signal) < signals,
                 "network_current: gate signal " + std::to_string(d.gate_signal) +
                     " out of range (" + std::to_string(signals) + " signals)");
  RGLEAK_REQUIRE(std::isfinite(d.w_nm) && d.w_nm > 0.0,
                 "network_current: device width must be positive and finite");
}

}  // namespace

double network_current(const Network& network, const NetworkEvalContext& ctx, double v_lo_v,
                       double v_hi_v) {
  RGLEAK_REQUIRE(ctx.tech != nullptr, "evaluation context missing technology");
  RGLEAK_REQUIRE(std::isfinite(v_lo_v) && std::isfinite(v_hi_v),
                 "network_current: rail voltages must be finite");
  RGLEAK_REQUIRE(v_hi_v >= v_lo_v, "network_current needs v_hi >= v_lo");
  RGLEAK_REQUIRE(std::isfinite(ctx.l_nm) && ctx.l_nm > 0.0,
                 "network_current: channel length must be positive and finite (got " +
                     std::to_string(ctx.l_nm) + ")");
  require_finite(ctx.gate_voltage_v, "gate_voltage_v");
  require_finite(ctx.dvt_v, "dvt_v");
  require_valid(network, ctx.gate_voltage_v.size());
  if (v_hi_v == v_lo_v) return 0.0;
  return Solver(ctx).element(network, v_lo_v, v_hi_v);
}

}  // namespace rgleak::device
