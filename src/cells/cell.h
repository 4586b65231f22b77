#pragma once
// Standard cell: a collection of rail-to-rail leakage stages with resolved
// internal logic, evaluated per input state.
//
// A cell has `num_inputs` primary inputs; every stage either computes an
// internal signal (an inverting CMOS gate: network = series(PDN, PUN) between
// GND and VDD) or is a pure leak path (e.g. an off transmission gate or SRAM
// access device). Given an input state, the cell resolves all internal
// signals, maps them to rail voltages, and sums the stage currents — this is
// the per-state leakage the paper's pre-characterization measures.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cells/expr.h"
#include "device/network.h"
#include "device/subthreshold.h"

namespace rgleak::cells {

/// One leakage stage of a cell: either a static CMOS gate (pull-down +
/// pull-up + logic) or a raw rail-to-rail leak path (off transmission gate,
/// SRAM access device, tri-state output).
///
/// For a CMOS stage in a valid input state exactly one network conducts and
/// pins the output to a rail; the stage leakage is the subthreshold current
/// of the *off* network under full rail bias (the ON network's drop is
/// negligible — the standard leakage-analysis approximation, consistent with
/// the paper's per-state cell characterization).
struct Stage {
  /// Logic output produced by a CMOS stage: value = invert ^ expr(signals).
  struct Output {
    Expr expr;
    bool invert = true;  ///< static CMOS stages are inverting
  };

  std::optional<device::Network> pdn;        ///< CMOS: pull-down network
  std::optional<device::Network> pun;        ///< CMOS: pull-up network
  std::optional<device::Network> rail_path;  ///< leak-only path GND..VDD
  std::optional<Output> output;              ///< set for CMOS stages
};

/// An immutable standard cell. Build with CellBuilder.
class Cell {
 public:
  const std::string& name() const { return name_; }
  int num_inputs() const { return num_inputs_; }
  /// Number of distinct input states (2^num_inputs).
  std::uint32_t num_states() const { return 1u << num_inputs_; }
  /// Total transistor count.
  std::size_t num_devices() const { return num_devices_; }
  /// Approximate layout footprint (nm^2): transistor-count-proportional model.
  double footprint_nm2() const { return footprint_nm2_; }

  /// Leakage (nA) for the given input state, shared channel length l_nm, and
  /// optional per-device random Vt shifts (indexed by device dvt_index).
  double leakage_na(std::uint32_t state, double l_nm, const device::TechnologyParams& tech,
                    std::span<const double> dvt_v = {}) const;

  /// Resolves all signal booleans for a state (inputs, stage outputs,
  /// constants GND=false, VDD=true). Exposed for tests.
  std::vector<bool> resolve_signals(std::uint32_t state) const;

  /// Signal ids of the two constants.
  int gnd_signal() const { return gnd_signal_; }
  int vdd_signal() const { return vdd_signal_; }

  /// True when the cell declares a logic (primary) output.
  bool has_primary_output() const { return primary_output_ >= 0; }
  /// Signal id of the primary output. Requires has_primary_output().
  int primary_output_signal() const;

  /// Boolean value of the cell's primary output for an input state. The
  /// primary output defaults to the last logic stage's output; builders
  /// override it for multi-stage cells (e.g. DFF -> Q). Cells without logic
  /// outputs have no primary output (throws).
  bool output_value(std::uint32_t state) const;

  /// P(primary output = 1) when input i is independently 1 with probability
  /// input_probs[i]. Exact sum over the 2^k states.
  double output_probability(const std::vector<double>& input_probs) const;

  /// Systematic threshold-voltage offset of this cell's devices (multi-Vt
  /// flavor): added on top of any per-device random dVt at evaluation time.
  double vt_offset_v() const { return vt_offset_v_; }

  /// A renamed copy of this cell with a systematic Vt offset — how the
  /// multi-Vt library variants (LVT/HVT) are derived from the SVT masters.
  Cell with_vt_flavor(const std::string& suffix, double vt_offset_v) const;

  const std::vector<Stage>& stages() const { return stages_; }

 private:
  friend class CellBuilder;
  Cell() = default;
  /// resolve_signals() into a caller-owned buffer (reuses its capacity).
  void resolve_into(std::uint32_t state, std::vector<bool>& signals) const;

  std::string name_;
  int num_inputs_ = 0;
  std::vector<Stage> stages_;
  int num_signals_ = 0;  // inputs + stage outputs + 2 constants
  int gnd_signal_ = 0, vdd_signal_ = 0;
  int primary_output_ = -1;  // signal id, -1 when the cell has no logic output
  std::size_t num_devices_ = 0;
  double footprint_nm2_ = 0.0;
  double vt_offset_v_ = 0.0;
};

/// Incremental construction of a Cell. Signal ids: 0..num_inputs-1 are primary
/// inputs; each signal-producing stage appends one; gnd()/vdd() are constants.
class CellBuilder {
 public:
  CellBuilder(std::string name, int num_inputs, Sizing sizing);

  int input(int index) const;
  int gnd() const { return gnd_signal_; }
  int vdd() const { return vdd_signal_; }

  /// Adds an inverting static CMOS stage computing !f; returns the output
  /// signal id.
  int add_inverting_gate(const Expr& f);
  /// Convenience: inverter on one signal.
  int add_inverter(int signal);
  /// Adds a leak-only rail path built from the given boolean expression pair:
  /// an "off transmission-gate" proxy — series(NMOS(gate), PMOS(gate)) so that
  /// exactly one device is off for either gate value.
  void add_tgate_path(int gate_signal);
  /// Adds a single off-device rail path (e.g. an SRAM access transistor with
  /// the wordline low): NMOS with gate tied to GND.
  void add_off_nmos_path(double width_multiplier = 1.0);
  /// Adds a tri-state output stage: series(NMOS gated by `nmos_gate`, PMOS
  /// gated by `pmos_gate`) between the rails. Produces no logic output.
  void add_split_gate_stage(int nmos_gate, int pmos_gate);
  /// Marks `signal` (a stage output) as the cell's primary output.
  void set_primary_output(int signal);

  Cell build() &&;

 private:
  Cell cell_;
  Sizing sizing_;
  int next_signal_;
  int next_dvt_ = 0;
  int gnd_signal_, vdd_signal_;
  bool explicit_primary_ = false;
};

}  // namespace rgleak::cells
