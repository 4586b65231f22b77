#pragma once
// Series/parallel transistor-network leakage solver.
//
// A cell's pull-up and pull-down networks are series/parallel trees of
// devices. For a given input state, the leakage through the network between
// two rails is found by enforcing current continuity at the internal nodes;
// every element's current is monotone in its terminal voltages, so each
// series chain reduces to bracketed scalar root-finding (Brent's method):
// on the internal-node voltage of a two-element stack, and on ln(I) for a
// longer chain, whose elements are inverted by current marching. This
// reproduces the transistor "stack effect" (a 2-stack leaks ~10x less than a
// single off device), which is the logic-structure dependence the paper's
// cell pre-characterization captures.
//
// The answers are those of the nested-bisection solver this one replaced
// (kept as a test oracle, tests/device/legacy_network_oracle.h): bit for bit
// for two-element stacks, whose result keeps the bisection's node-voltage
// quantization, and to ~1e-13 relative for longer chains.

#include <span>
#include <vector>

#include "device/subthreshold.h"

namespace rgleak::device {

/// One transistor in a network. `gate_signal` indexes the resolved signal
/// vector of the evaluation context (cells resolve logical values to rail
/// voltages). `dvt_index` indexes the per-device random-Vt vector (-1: none).
struct NetworkDevice {
  DeviceType type = DeviceType::kNmos;
  int gate_signal = 0;
  double w_nm = 120.0;
  int dvt_index = -1;
};

/// Series/parallel tree. Value type; build with the static factories.
class Network {
 public:
  enum class Kind { kDevice, kSeries, kParallel };

  static Network device(NetworkDevice d);
  static Network series(std::vector<Network> children);
  static Network parallel(std::vector<Network> children);

  Kind kind() const { return kind_; }
  const NetworkDevice& dev() const;
  const std::vector<Network>& children() const { return children_; }

  /// Total number of devices in the tree.
  std::size_t device_count() const;
  /// Appends every device in the tree (pre-order) to `out`.
  void collect_devices(std::vector<const NetworkDevice*>& out) const;

 private:
  Network() = default;
  Kind kind_ = Kind::kDevice;
  NetworkDevice device_;
  std::vector<Network> children_;
};

/// Everything needed to evaluate device currents for one input state and one
/// process sample.
struct NetworkEvalContext {
  const TechnologyParams* tech = nullptr;
  std::span<const double> gate_voltage_v;  ///< resolved signal voltages
  double l_nm = 0.0;                       ///< sampled channel length (shared within cell)
  std::span<const double> dvt_v;           ///< per-device random Vt shifts (may be empty)
};

/// Current (nA) flowing through the network from the node at `v_hi_v` to the
/// node at `v_lo_v`. Requires v_hi_v >= v_lo_v, a technology, a positive
/// finite channel length and finite gate voltages, Vt shifts and rails; the
/// context and network are validated once per call, and a violation throws
/// ContractViolation naming the offending entry (e.g. "dvt_v[2]"). Throws
/// NumericalError when a root solve reaches Brent's iteration bound for its
/// bracket (device/root_finding.h), i.e. the bracket stopped shrinking; this
/// does not happen for valid series/parallel trees of monotone devices.
double network_current(const Network& network, const NetworkEvalContext& ctx, double v_lo_v,
                       double v_hi_v);

}  // namespace rgleak::device
