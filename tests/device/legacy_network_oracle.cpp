#include "device/legacy_network_oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace rgleak::device::legacy {
namespace {

double device_current(const NetworkDevice& d, const NetworkEvalContext& ctx, double v_lo,
                      double v_hi) {
  const double vg = ctx.gate_voltage_v[static_cast<std::size_t>(d.gate_signal)];
  const double dvt = (d.dvt_index >= 0 &&
                      static_cast<std::size_t>(d.dvt_index) < ctx.dvt_v.size())
                         ? ctx.dvt_v[static_cast<std::size_t>(d.dvt_index)]
                         : 0.0;
  const double vds = v_hi - v_lo;
  if (d.type == DeviceType::kNmos)
    return subthreshold_current(*ctx.tech, DeviceType::kNmos, d.w_nm, ctx.l_nm, vg - v_lo, vds,
                                dvt);
  return subthreshold_current(*ctx.tech, DeviceType::kPmos, d.w_nm, ctx.l_nm, v_hi - vg, vds, dvt);
}

double element_current(const Network& n, const NetworkEvalContext& ctx, double v_lo, double v_hi);

// Current marching: an outer bisection on ln(I), each step inverting every
// chain element by an inner bisection; a two-element chain bisects its one
// internal node directly.
double series_current(const Network& n, const NetworkEvalContext& ctx, double v_lo, double v_hi) {
  const auto& ch = n.children();

  if (ch.size() == 2) {
    double lo = v_lo, hi = v_hi;
    for (int it = 0; it < 70 && hi - lo > 1e-16; ++it) {
      const double v = 0.5 * (lo + hi);
      if (element_current(ch[0], ctx, v_lo, v) > element_current(ch[1], ctx, v, v_hi)) {
        hi = v;
      } else {
        lo = v;
      }
    }
    const double v = 0.5 * (lo + hi);
    return std::min(element_current(ch[0], ctx, v_lo, v), element_current(ch[1], ctx, v, v_hi));
  }

  double hi_i = std::numeric_limits<double>::infinity();
  for (const auto& c : ch) hi_i = std::min(hi_i, element_current(c, ctx, v_lo, v_hi));
  if (hi_i <= 0.0) return 0.0;

  const auto invert = [&](const Network& e, double v_below, double i) {
    if (element_current(e, ctx, v_below, v_hi) < i) return v_hi + 1.0;
    double lo = v_below, hi = v_hi;
    for (int it = 0; it < 64 && hi - lo > 1e-15; ++it) {
      const double mid = 0.5 * (lo + hi);
      if (element_current(e, ctx, v_below, mid) < i) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return 0.5 * (lo + hi);
  };

  const auto march = [&](double i) {
    double v = v_lo;
    for (const auto& c : ch) {
      v = invert(c, v, i);
      if (v > v_hi) return v;
    }
    return v;
  };

  double lo_log = std::log(hi_i * 1e-36);
  double hi_log = std::log(hi_i);
  for (int it = 0; it < 90; ++it) {
    const double mid = 0.5 * (lo_log + hi_log);
    if (march(std::exp(mid)) >= v_hi) {
      hi_log = mid;
    } else {
      lo_log = mid;
    }
  }
  return std::exp(0.5 * (lo_log + hi_log));
}

double element_current(const Network& n, const NetworkEvalContext& ctx, double v_lo, double v_hi) {
  switch (n.kind()) {
    case Network::Kind::kDevice:
      return device_current(n.dev(), ctx, v_lo, v_hi);
    case Network::Kind::kParallel: {
      double s = 0.0;
      for (const auto& c : n.children()) s += element_current(c, ctx, v_lo, v_hi);
      return s;
    }
    case Network::Kind::kSeries:
      return series_current(n, ctx, v_lo, v_hi);
  }
  return 0.0;
}

}  // namespace

double network_current(const Network& network, const NetworkEvalContext& ctx, double v_lo_v,
                       double v_hi_v) {
  if (v_hi_v == v_lo_v) return 0.0;
  return element_current(network, ctx, v_lo_v, v_hi_v);
}

std::vector<double> stage_currents(const cells::Cell& cell, std::uint32_t state, double l_nm,
                                   const TechnologyParams& tech, NetworkSolver solve) {
  const std::vector<bool> signals = cell.resolve_signals(state);
  std::vector<double> voltage(signals.size());
  for (std::size_t i = 0; i < signals.size(); ++i) voltage[i] = signals[i] ? tech.vdd_v : 0.0;
  const std::vector<double> dvt(cell.num_devices(), cell.vt_offset_v());
  NetworkEvalContext ctx;
  ctx.tech = &tech;
  ctx.gate_voltage_v = voltage;
  ctx.l_nm = l_nm;
  if (cell.vt_offset_v() != 0.0) ctx.dvt_v = dvt;

  std::vector<double> out;
  int next_output = cell.num_inputs() + 2;
  for (const auto& stage : cell.stages()) {
    if (stage.rail_path) {
      out.push_back(solve(*stage.rail_path, ctx, 0.0, tech.vdd_v));
      continue;
    }
    const bool out_high = signals[static_cast<std::size_t>(next_output++)];
    out.push_back(solve(out_high ? *stage.pdn : *stage.pun, ctx, 0.0, tech.vdd_v));
  }
  return out;
}

}  // namespace rgleak::device::legacy
